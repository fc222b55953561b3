(* Per-layer metrics of a traced run. Times are medians of per-operation
   samples taken in this benchmark around calls into each layer's
   public functions; counts come from the engine's Metrics sink or the
   server's STATS reply. A layer a workload does not exercise reads 0. *)

let all =
  [
    ("relation.csv_load_ms", "ms");
    ("relation.render_ms", "ms");
    ("relation.render_bytes", "bytes");
    ("query.parse_ms", "ms");
    ("query.plan_ms", "ms");
    ("windows.sweep_ms", "ms");
    ("windows.wo", "count");
    ("windows.wu", "count");
    ("windows.wn", "count");
    ("joins.formation_ms", "ms");
    ("joins.rows_out", "count");
    ("joins.lineage_nodes", "count");
    ("joins.minor_words_per_row", "words");
    ("lineage.prob_evals", "count");
    ("lineage.prob_cache_hit_rate", "ratio");
    ("lineage.readonce_checks", "count");
    ("lineage.bdd_fallbacks", "count");
    ("lineage.interned_formulas", "count");
    ("storage.spill_mb", "MB");
    ("storage.spill_partitions", "count");
    ("storage.pool_hit_rate", "ratio");
    ("server.ping_ms", "ms");
    ("server.hit_ms", "ms");
    ("server.miss_ms", "ms");
    ("server.load_ms", "ms");
    ("server.plan_cache_hit_rate", "ratio");
    ("server.result_cache_hit_rate", "ratio");
    ("op.unattributed_ms", "ms");
    ("trace.overhead_ms", "ms");
  ]

type t = { samples : (string, float list) Hashtbl.t; values : (string, float) Hashtbl.t }

let create () = { samples = Hashtbl.create 32; values = Hashtbl.create 32 }

(* one per-operation sample; the metric reports their median *)
let sample t name v =
  Hashtbl.replace t.samples name
    (v :: Option.value ~default:[] (Hashtbl.find_opt t.samples name))

let set t name v = Hashtbl.replace t.values name v

let median t name =
  match Hashtbl.find_opt t.samples name with
  | Some xs -> Util.median (Array.of_list xs)
  | None -> 0.0

let metrics t =
  List.map
    (fun (name, unit) ->
      let v =
        match Hashtbl.find_opt t.values name with
        | Some v -> v
        | None -> median t name
      in
      (name, v, unit))
    all

let ratio a b = if a + b = 0 then 0.0 else float_of_int a /. float_of_int (a + b)

(* Engine counters of one round, read from a Metrics sink. *)
module C = Tpdb.Metrics

let engine_counters =
  [
    ("windows.wo", C.Windows_overlapping);
    ("windows.wu", C.Windows_unmatched);
    ("windows.wn", C.Windows_negating);
    ("joins.rows_out", C.Tuples_out);
    ("joins.lineage_nodes", C.Lineage_nodes);
    ("lineage.prob_evals", C.Prob_evals);
    ("lineage.readonce_checks", C.Prob_readonce_checks);
    ("lineage.bdd_fallbacks", C.Prob_bdd_fallbacks);
    ("prob_cache_hits", C.Prob_cache_hits);
    ("prob_cache_misses", C.Prob_cache_misses);
    ("spill_bytes", C.Spill_bytes);
    ("storage.spill_partitions", C.Spill_partitions);
    ("pool_hits", C.Pool_hits);
    ("pool_misses", C.Pool_misses);
  ]

let snapshot m = List.map (fun (k, c) -> (k, C.get m c)) engine_counters
let delta a b = List.map2 (fun (k, x) (_, y) -> (k, y - x)) a b

(* Sets the count metrics from one round's counter deltas, per
   operation of the round. *)
let set_round t ~ops counts =
  let get k = List.assoc k counts in
  let per_op k = float_of_int (get k) /. float_of_int ops in
  List.iter
    (fun (k, _) ->
      if String.contains k '.' then set t k (per_op k))
    engine_counters;
  set t "lineage.prob_cache_hit_rate"
    (ratio (get "prob_cache_hits") (get "prob_cache_misses"));
  set t "storage.spill_mb" (per_op "spill_bytes" /. 1048576.0);
  set t "storage.pool_hit_rate" (ratio (get "pool_hits") (get "pool_misses"))
