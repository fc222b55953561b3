(* tpbench --workload NAME --seed N --seconds S --trace 0|1
           --work DIR [--server EXE]

   Runs one workload and prints, as its last line, one JSON object with
   the end-to-end metrics (--trace 0) or the per-layer metrics
   (--trace 1). run.py builds this program and passes [--work] and
   [--server]. *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and work = ref "" and server = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "adhoc|composed|spill");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "length of the measured phase");
      ("--trace", Arg.Set_int trace, "1: report per-layer metrics");
      ("--work", Arg.Set_string work, "directory for inputs and sockets");
      ("--server", Arg.Set_string server, "tpdb_server executable (adhoc's trace)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "tpbench --workload NAME --seed N --seconds S --trace 0|1 --work DIR";
  if !work = "" then (prerr_endline "tpbench: --work is required"; exit 2);
  Util.mkdir_p !work;
  let seconds = !seconds and trace = !trace = 1 and seed = !seed in
  let dir = !work in
  let o =
    match !workload with
    | "adhoc" ->
        let server = if !server = "" then None else Some !server in
        Sql_workloads.run ~server ~inputs:Sql_workloads.adhoc_inputs
          ~queries:Sql_workloads.adhoc_queries
          ~mix:[| 0; 1; 2; 3; 4; 5; 0 |] ~floor:140 ~oracle_keys:2
          ~seconds ~trace ~seed ~dir
    | "composed" ->
        Sql_workloads.run ~server:None ~inputs:Sql_workloads.composed_inputs
          ~queries:Sql_workloads.composed_queries
          ~mix:[| 0; 1; 2 |] ~floor:100 ~oracle_keys:1
          ~seconds ~trace ~seed ~dir
    | "spill" -> Spill_wl.run ~seconds ~trace ~seed
    | w ->
        prerr_endline ("tpbench: unknown workload " ^ w);
        exit 2
  in
  Util.print_counts ~steady:o.steady o.counts;
  let metrics =
    match o.layers with
    | Some l -> Layers.metrics l
    | None ->
        let ops = Array.length o.latencies in
        [
          ("setup_s", o.setup_s, "s");
          ("ops_per_s", float_of_int ops /. o.phase_s, "1/s");
          ("p50_ms", Util.median o.latencies, "ms");
          ("tail_ms", Util.quantile o.latencies o.tail_q, "ms");
          ("peak_rss_mb", float_of_int o.rss_kb /. 1024.0, "MB");
        ]
  in
  Printf.eprintf "tail_ms is p%g over %d operations\n%!" (100.0 *. o.tail_q)
    (Array.length o.latencies);
  Util.print_result ~correct:true ~attempted:o.attempted ~failed:o.failed
    metrics
