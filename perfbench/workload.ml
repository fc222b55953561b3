(* What every workload hands back, and the timed loop they share. *)

type outcome = {
  setup_s : float;  (* median of the run's set-ups *)
  latencies : float array;  (* ms, untraced timed phase *)
  phase_s : float;  (* wall time of the untraced timed phase *)
  tail_q : float;
  attempted : int;
  failed : int;
  rss_kb : int;  (* VmHWM when the timed phase reached its floor *)
  counts : (string * int) list;  (* exact, per round *)
  steady : bool;  (* every metered round gave the same counts *)
  layers : Layers.t option;  (* traced run only *)
}

let setups = 5

(* Runs [setup] [setups] times and keeps the last result; [setup_s] is
   the median time. [discard] releases each earlier result, untimed. *)
let repeat_setup ?(discard = ignore) setup =
  let times = Array.make setups 0.0 in
  let last = ref None in
  for i = 0 to setups - 1 do
    Option.iter discard !last;
    let x, ms = Util.timed setup in
    times.(i) <- ms /. 1000.0;
    last := Some x
  done;
  (Option.get !last, Util.median times)

(* Whole rounds until [seconds] have passed and at least [floor]
   operations ran. [round record] runs one round and passes each
   operation's latency (ms) to [record]; [at_floor] runs once, after the
   round that reaches [floor] — a point fixed by the operation count
   rather than by time, where peak memory is read. Returns the
   latencies, the number of rounds and the phase's wall time in
   seconds. *)
let timed_rounds ?(at_floor = ignore) ~seconds ~floor ~round_size round =
  let lat = ref [] and rounds = ref 0 in
  let t0 = Util.now () in
  while Util.now () -. t0 < seconds || !rounds * round_size < floor do
    round (fun ms -> lat := ms :: !lat);
    incr rounds;
    if !rounds * round_size >= floor && (!rounds - 1) * round_size < floor then
      at_floor ()
  done;
  (Array.of_list (List.rev !lat), !rounds, Util.now () -. t0)

(* Runs [f] with the Metrics sink [m] installed and returns the engine
   counters it added. *)
let metered m f =
  let before = Layers.snapshot m in
  Tpdb.Metrics.install m;
  Fun.protect ~finally:Tpdb.Metrics.uninstall f;
  Layers.delta before (Layers.snapshot m)

(* The traced phase of the in-process workloads: whole rounds of
   [traced_round] for [seconds] (at least two rounds). Each round must
   add exactly the metered [counts] to [m], else the run is unsteady.
   [untraced] are the untraced phase's latencies. *)
let traced_phase ~seconds ~round_size ~m ~counts ~untraced traced_round =
  let l = Layers.create () in
  let steady = ref true in
  ignore
    (timed_rounds ~seconds ~floor:(2 * round_size) ~round_size (fun _ ->
         let before = Layers.snapshot m in
         traced_round l;
         if Layers.delta before (Layers.snapshot m) <> counts then
           steady := false));
  Layers.set_round l ~ops:round_size counts;
  Layers.set l "lineage.interned_formulas"
    (float_of_int (Tpdb.Formula.interned ()));
  Layers.set l "trace.overhead_ms"
    (Layers.median l "traced_op_ms" -. Util.median untraced);
  (l, !steady)

(* Untraced time in a traced run: half for the untraced phase that
   gives [trace.overhead_ms] its base, half for the traced phase. *)
let phase_seconds ~trace seconds = if trace then seconds /. 2.0 else seconds
