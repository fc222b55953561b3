(* The server layer, measured in [adhoc]'s traced run.

   A tpdb_server process (one worker domain, [--jobs 1]) is started with
   adhoc's CSV files preloaded, and one connection replays the adhoc
   queries in a closed loop. Each of [rounds] rounds is: LOAD wr again
   (a new version, so the queries that read wr miss the result cache),
   then every query twice — the first pass runs the engine for the
   queries on wr and is answered from the result cache for the others,
   the second pass is all hits. Each reply must equal the in-process
   result of the same query, whose output passed the checks of [Checks].

   A workload of its own timed this way was dropped: its figures moved
   by up to half between runs of one seed on a two-core virtual machine,
   where every request wakes another process (see README.md). *)

open Tpdb

let rounds = 10

let started log =
  let text = Util.read_file log and pat = "listening on" in
  let n = String.length text and m = String.length pat in
  let rec go i = i + m <= n && (String.sub text i m = pat || go (i + 1)) in
  go 0

(* Starts tpdb_server on a Unix socket in [dir] with [tables] (name, CSV
   path) preloaded, waits for its "listening on" line and connects. *)
let start ~exe ~dir ~tables =
  let sock = Filename.concat dir "serve.sock" in
  if Sys.file_exists sock then Sys.remove sock;
  let log = Filename.concat dir "server.log" in
  let out = Unix.openfile log [ Unix.O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let args =
    [ exe; "--socket"; sock; "--workers"; "1"; "--jobs"; "1" ]
    @ List.concat_map (fun (name, path) -> [ "--table"; name ^ "=" ^ path ]) tables
  in
  let pid = Unix.create_process exe (Array.of_list args) Unix.stdin out Unix.stderr in
  Unix.close out;
  let t0 = Util.now () in
  let rec wait () =
    if not (started log) then
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ when Util.now () -. t0 < 30.0 ->
          Unix.sleepf 0.005;
          wait ()
      | 0, _ ->
          Unix.kill pid Sys.sigkill;
          ignore (Unix.waitpid [] pid);
          failwith "tpdb_server did not start"
      | _ -> failwith "tpdb_server exited at start"
  in
  wait ();
  (pid, Server_client.connect (`Unix sock))

let stop (pid, client) =
  Server_client.close client;
  Unix.kill pid Sys.sigterm;
  ignore (Unix.waitpid [] pid)

let cache_counts client =
  let stats = Server_client.stats client in
  List.map
    (fun k -> (k, Util.json_int stats k))
    [ "plan_cache_hits"; "plan_cache_misses"; "result_cache_hits"; "result_cache_misses" ]

(* Sets the server.* metrics of [l]. [tables] are the base relations,
   the first one reloaded every round; [queries] the SQL texts and
   [expected] their rendered results. Returns (requests, wrong replies). *)
let measure l ~exe ~dir ~tables ~queries ~expected =
  let server = start ~exe ~dir ~tables in
  Fun.protect ~finally:(fun () -> stop server) @@ fun () ->
  let client = snd server in
  let time f = snd (Util.timed f) in
  Layers.set l "server.ping_ms"
    (Util.median (Array.init 200 (fun _ -> time (fun () -> Server_client.ping client))));
  let name, path = List.hd tables in
  let csv = Util.read_file path in
  let hits = ref [] and misses = ref [] and loads = ref [] in
  let ops = ref 0 and bad = ref 0 in
  let before = cache_counts client in
  for _ = 1 to rounds do
    loads := time (fun () -> ignore (Server_client.load client ~name ~csv)) :: !loads;
    incr ops;
    for _ = 1 to 2 do
      Array.iteri
        (fun i sql ->
          let reply, ms = Util.timed (fun () -> Server_client.query client sql) in
          incr ops;
          if reply.result_cached then hits := ms :: !hits else misses := ms :: !misses;
          if not (String.equal reply.text expected.(i)) then incr bad)
        queries
    done
  done;
  let d = Layers.delta before (cache_counts client) in
  let rate h m = Layers.ratio (List.assoc h d) (List.assoc m d) in
  Layers.set l "server.plan_cache_hit_rate" (rate "plan_cache_hits" "plan_cache_misses");
  Layers.set l "server.result_cache_hit_rate" (rate "result_cache_hits" "result_cache_misses");
  List.iter
    (fun (metric, xs) -> Layers.set l metric (Util.median (Array.of_list !xs)))
    [ ("server.hit_ms", hits); ("server.miss_ms", misses); ("server.load_ms", loads) ];
  (!ops, !bad)
