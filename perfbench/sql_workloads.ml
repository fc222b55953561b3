(* [adhoc] and [composed]: one-shot TP-SQL over CSV files, cycling a
   fixed mix of queries. Every operation's rendered output must equal
   that of the same query in the last warm-up round, and those warm-up
   outputs pass the independent checks of [Checks] (run after the timed
   phase, so the oracle's memory does not enter [peak_rss_mb]). *)

open Tpdb
open Checks

let join kind theta right ~key_l ~key_r = { kind; theta; right; key_l; key_r }
let query label sql left joins ~equi = { label; sql; left; joins; equi }

(* Webkit- and Meteo-shaped pairs; each relation has its own lineage
   tag. *)
let adhoc_inputs seed =
  let rng = Util.Rng.make seed in
  let wr = Inputs.webkit rng ~name:"wr" ~tag:"a" ~files:150 ~per_file:8 in
  let ws = Inputs.webkit rng ~name:"ws" ~tag:"b" ~files:150 ~per_file:8 in
  let mr = Inputs.meteo rng ~name:"mr" ~tag:"c" ~stations:12 ~per_pair:5 in
  let ms = Inputs.meteo rng ~name:"ms" ~tag:"d" ~stations:12 ~per_pair:5 in
  [ wr; ws; mr; ms ]

let adhoc_queries = function
  | [ wr; ws; mr; ms ] ->
      let file kind = join kind (Theta.eq 0 0) ws ~key_l:0 ~key_r:0 in
      let metric kind = join kind (Theta.eq 1 1) ms ~key_l:1 ~key_r:1 in
      let on_file = "ON wr.File = ws.File" and on_metric = "ON mr.Metric = ms.Metric" in
      [
        query "inner" ("SELECT * FROM wr TPJOIN ws " ^ on_file) wr
          [ file Nj.Inner ] ~equi:true;
        query "left" ("SELECT * FROM wr LEFT TPJOIN ws " ^ on_file) wr
          [ file Nj.Left ] ~equi:true;
        query "anti" ("SELECT * FROM wr ANTIJOIN ws " ^ on_file) wr
          [ file Nj.Anti ] ~equi:true;
        query "right" ("SELECT * FROM mr RIGHT TPJOIN ms " ^ on_metric) mr
          [ metric Nj.Right ] ~equi:true;
        query "full" ("SELECT * FROM mr FULL TPJOIN ms " ^ on_metric) mr
          [ metric Nj.Full ] ~equi:true;
        query "left-overlaps"
          ("SELECT * FROM wr LEFT TPJOIN ws " ^ on_file
         ^ " AND wr.T OVERLAPS ws.T")
          wr
          [
            join Nj.Left
              (Theta.with_temporal (`Allen Interval.Overlaps) (Theta.eq 0 0))
              ws ~key_l:0 ~key_r:0;
          ]
          ~equi:false;
      ]
  | _ -> invalid_arg "adhoc_queries"

(* Few keys and long intervals: many tuples of one key are valid at
   once, so negations are wide disjunctions. [cu] is a second name for
   [cs]'s file — the same tuples and lineage variables, as two views over
   one probabilistic database — so the anti join negates variables the
   derived lineage already holds: lineages stop being read-once and
   probabilities need the BDD, which the probability cache memoizes. *)
let composed_inputs seed =
  let rng = Util.Rng.make seed in
  let dense name tag =
    Inputs.dense rng ~name ~tag ~keys:8 ~size:240 ~horizon:1000 ~dur:30
  in
  let cs = dense "cs" "b" in
  [ dense "cr" "a"; cs; { cs with name = "cu" } ]

let composed_queries = function
  | [ cr; cs; cu ] ->
      let k kind right = join kind (Theta.eq 0 0) right ~key_l:0 ~key_r:0 in
      [
        query "full-anti"
          "SELECT * FROM cr FULL TPJOIN cs ON cr.K = cs.K ANTIJOIN cu ON cr.K \
           = cu.K"
          cr [ k Nj.Full cs; k Nj.Anti cu ] ~equi:true;
        query "left-anti"
          "SELECT * FROM cr LEFT TPJOIN cs ON cr.K = cs.K ANTIJOIN cu ON cr.K \
           = cu.K"
          cr [ k Nj.Left cs; k Nj.Anti cu ] ~equi:true;
        query "full-right"
          "SELECT * FROM cr FULL TPJOIN cs ON cr.K = cs.K RIGHT TPJOIN cu ON cr.K \
           = cu.K"
          cr [ k Nj.Full cs; k Nj.Right cu ] ~equi:true;
      ]
  | _ -> invalid_arg "composed_queries"

(* [mix] is one round, as indices into [queries]: a query may appear
   more than once, so that the median and the tail percentile fall
   inside one query's latencies rather than between two. With [server]
   = [Some] tpdb_server executable, the traced run also measures the
   server layer on the same queries ([Server_probe]). *)
let run ~server ~inputs ~queries ~mix ~floor ~oracle_keys ~seconds ~trace ~seed
    ~dir =
  let setup () =
    let rels = inputs seed in
    List.iter (Inputs.write dir) rels;
    let qs = queries rels in
    List.map (fun q -> (q, Queries.op dir q)) qs
  in
  let warm, setup_s = Workload.repeat_setup setup in
  let qa = Array.of_list (List.map fst warm) in
  let n = Array.length qa in
  let expected = Array.of_list (List.map (fun (_, (_, _, t)) -> t) warm) in
  let ops = Array.make n 0 and bad = Array.make n 0 in
  let per_query = Array.make n [] in
  let finish i text =
    ops.(i) <- ops.(i) + 1;
    if not (String.equal text expected.(i)) then bad.(i) <- bad.(i) + 1
  in
  let round_size = Array.length mix in
  let round record =
    Array.iter
      (fun i ->
        let (_, _, text), ms = Util.timed (fun () -> Queries.op dir qa.(i)) in
        record ms;
        per_query.(i) <- ms :: per_query.(i);
        finish i text)
      mix
  in
  let rss_kb = ref 0 in
  let latencies, _, phase_s =
    Workload.timed_rounds
      ~at_floor:(fun () -> rss_kb := Util.vm_hwm_kb ())
      ~seconds:(Workload.phase_seconds ~trace seconds)
      ~floor ~round_size round
  in
  Array.iteri
    (fun i q ->
      Printf.eprintf "%s: p50 %.3f ms\n" q.label
        (Util.median (Array.of_list per_query.(i))))
    qa;
  (* one metered round gives the exact counts *)
  let m = Metrics.create () in
  let counts = Workload.metered m (fun () -> round ignore) in
  let probe_ops = ref 0 and probe_bad = ref 0 in
  let layers, steady =
    if not trace then (None, true)
    else
      let l, steady =
        Workload.traced_phase ~seconds:(seconds /. 2.0) ~round_size ~m ~counts
          ~untraced:latencies (fun l ->
            Array.iter (fun i -> finish i (Queries.traced_op l m dir qa.(i))) mix)
      in
      Option.iter
        (fun exe ->
          (* every base relation once, the first query's left input first:
             the one the probe reloads *)
          let tables =
            List.fold_left
              (fun acc (rel : Inputs.rel) ->
                if List.mem_assoc rel.name acc then acc
                else acc @ [ (rel.name, Inputs.path dir rel) ])
              []
              (List.concat_map Checks.inputs (Array.to_list qa))
          in
          let ops, bad =
            Server_probe.measure l ~exe ~dir ~tables
              ~queries:(Array.map (fun q -> q.sql) qa) ~expected
          in
          probe_ops := ops;
          probe_bad := bad)
        server;
      (Some l, steady)
  in
  let rng = Util.Rng.make (seed + 1) in
  let failed = ref 0 in
  List.iteri
    (fun i (q, (rels, result, _)) ->
      let problems =
        try
          Queries.verify ~dir
            ~keys:(Queries.sample_keys rng oracle_keys q)
            (q, rels, result)
        with e -> [ q.label ^ ": check raised " ^ Printexc.to_string e ]
      in
      List.iter prerr_endline problems;
      failed := !failed + if problems = [] then bad.(i) else ops.(i))
    warm;
  failed := !failed + !probe_bad;
  {
    Workload.setup_s;
    latencies;
    phase_s;
    tail_q = Util.tail_quantile floor;
    attempted = Array.fold_left ( + ) 0 ops + !probe_ops;
    failed = !failed;
    rss_kb = !rss_kb;
    counts = ("ops_per_round", round_size) :: counts;
    steady;
    layers;
  }
