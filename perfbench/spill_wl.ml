(* [spill]: equi-θ TP joins whose inputs exceed the memory budget,
   streamed through [Nj.join_spilled] — the inputs are generated on the
   fly and never materialized, so the spill partitions, heap files and
   buffer pool carry the working set.

   Inputs, with n = [r_rows] and m = [s_rows]: r has one tuple per key
   0..n-1; s has m tuples over m/2 keys drawn (by the seed) from r's
   keys, two per key; every interval is [0,100). Probabilities are
   seeded per tuple. The output is then known in closed form:
   - inner: one row per s tuple j, p = p_r(key j) · p_s(j);
   - anti: one row per r tuple over [0,100), p = p_r(i) if no s tuple
     has key i, else p_r(i) · (1 − p_s(j1)) · (1 − p_s(j2));
   - left outer: the inner rows plus the anti rows. *)

open Tpdb

let r_rows = 12_000
let s_rows = 8_000
let budget = 768 * 1024
let iv = Interval.make 0 100
let kinds = [| Nj.Inner; Nj.Anti; Nj.Left |]

type inputs = {
  keys : int array;  (* s tuple j has key keys.(j mod (m/2)) *)
  pos : int array;  (* r key i is keys.(pos.(i)), or pos.(i) = -1 *)
  pr : float array;
  ps : float array;
}

let make seed =
  let rng = Util.Rng.make seed in
  let perm = Array.init r_rows Fun.id in
  for i = r_rows - 1 downto 1 do
    let j = Util.Rng.int rng (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  let keys = Array.sub perm 0 (s_rows / 2) in
  let pos = Array.make r_rows (-1) in
  Array.iteri (fun q k -> pos.(k) <- q) keys;
  let pr = Array.init r_rows (fun _ -> Util.Rng.prob rng) in
  let ps = Array.init s_rows (fun _ -> Util.Rng.prob rng) in
  { keys; pos; pr; ps }

let r_schema = Schema.make ~name:"r" [ "K" ]
let s_schema = Schema.make ~name:"s" [ "K"; "J" ]
let var tag i = Formula.var (Var.make tag i)

let left_seq inp =
  Seq.init r_rows (fun i ->
      Tuple.make ~fact:(Fact.of_values [ Value.I i ]) ~lineage:(var "r" i) ~iv
        ~p:inp.pr.(i))

let right_seq inp =
  Seq.init s_rows (fun j ->
      Tuple.make
        ~fact:(Fact.of_values [ Value.I inp.keys.(j mod (s_rows / 2)); Value.I j ])
        ~lineage:(var "s" j) ~iv ~p:inp.ps.(j))

let env inp v =
  let i = Var.idx v in
  if Var.rel v = "r" then inp.pr.(i) else inp.ps.(i)

let options ?(mem_budget = budget) () =
  Nj.options ~parallelism:1 ~sanitize:false ~mem_budget
    ~est_rows:(r_rows, s_rows) ()

let op inp kind =
  Nj.join_spilled ~options:(options ()) ~env:(env inp) ~kind
    ~theta:(Theta.eq 0 0)
    ~left:(r_schema, left_seq inp)
    ~right:(s_schema, right_seq inp)
    ()

let int_at fact i = match Fact.get fact i with Value.I x -> Some x | _ -> None

(* The closed-form check of one output; [true] when it holds. *)
let check inp kind result =
  let half = s_rows / 2 in
  let seen_s = Array.make s_rows false and seen_r = Array.make r_rows false in
  let close a b = Float.abs (a -. b) <= 1e-12 in
  let rec row tp =
    let fact = Tuple.fact tp in
    Interval.equal (Tuple.iv tp) iv
    &&
    match (int_at fact 0, Fact.arity fact) with
    | Some i, 1 when kind = Nj.Anti -> anti_row i tp
    | Some i, 3 -> (
        match (int_at fact 1, int_at fact 2) with
        | Some k, Some j ->
            k = i && inp.keys.(j mod half) = i && not seen_s.(j)
            && (seen_s.(j) <- true;
                close (Tuple.p tp) (inp.pr.(i) *. inp.ps.(j)))
        | None, None when kind = Nj.Left -> anti_row i tp
        | _ -> false)
    | _ -> false
  and anti_row i tp =
    (not seen_r.(i))
    && (seen_r.(i) <- true;
        let q = inp.pos.(i) in
        let expected =
          if q < 0 then inp.pr.(i)
          else inp.pr.(i) *. (1.0 -. inp.ps.(q)) *. (1.0 -. inp.ps.(q + half))
        in
        close (Tuple.p tp) expected)
  in
  let expected_rows =
    match kind with
    | Nj.Inner -> s_rows
    | Nj.Anti -> r_rows
    | _ -> s_rows + r_rows
  in
  Relation.cardinality result = expected_rows
  && Seq.for_all row (Relation.to_seq result)

let run ~seconds ~trace ~seed =
  let floor = 100 in
  let n = Array.length kinds in
  let ops = ref 0 and failed = ref 0 in
  let one inp kind record =
    let result, ms = Util.timed (fun () -> op inp kind) in
    record ms;
    incr ops;
    if not (check inp kind result) then incr failed
  in
  let round inp record = Array.iter (fun k -> one inp k record) kinds in
  let inp, setup_s =
    Workload.repeat_setup (fun () ->
        let inp = make seed in
        round inp ignore;
        inp)
  in
  let rss_kb = ref 0 in
  let latencies, _, phase_s =
    Workload.timed_rounds
      ~at_floor:(fun () -> rss_kb := Util.vm_hwm_kb ())
      ~seconds:(Workload.phase_seconds ~trace seconds)
      ~floor ~round_size:n (round inp)
  in
  let m = Metrics.create () in
  let counts = Workload.metered m (fun () -> round inp ignore) in
  let layers, steady =
    if not trace then (None, true)
    else begin
      (* the in-memory sweep and join on the same inputs, materialized:
         what the operation costs without the storage layer *)
      let r = Relation.of_tuples r_schema (List.of_seq (left_seq inp)) in
      let s = Relation.of_tuples s_schema (List.of_seq (right_seq inp)) in
      let in_ram = options ~mem_budget:0 () in
      let traced_op l kind =
        Metrics.install m;
        let result, total_ms = Util.timed (fun () -> op inp kind) in
        Metrics.uninstall ();
        incr ops;
        if not (check inp kind result) then incr failed;
        let out, sweep_ms, join_ms, words =
          Queries.side_join ~options:in_ram ~env:(env inp) kind (Theta.eq 0 0) r s
        in
        Queries.sample_joins l ~sweep_ms ~join_ms ~words
          ~rows:(Relation.cardinality out);
        Layers.sample l "op.unattributed_ms" (total_ms -. join_ms);
        Layers.sample l "traced_op_ms" total_ms
      in
      let l, steady =
        Workload.traced_phase ~seconds:(seconds /. 2.0) ~round_size:n ~m ~counts
          ~untraced:latencies (fun l -> Array.iter (traced_op l) kinds)
      in
      (Some l, steady)
    end
  in
  {
    Workload.setup_s;
    latencies;
    phase_s;
    tail_q = Util.tail_quantile floor;
    attempted = !ops;
    failed = !failed;
    rss_kb = !rss_kb;
    counts = ("ops_per_round", n) :: counts;
    steady;
    layers;
  }
