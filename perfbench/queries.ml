(* The one-shot TP-SQL operation shared by [adhoc], [composed] and the
   in-process side of [serve]: what `tpdb_cli query --result-only` does
   — load the CSVs, parse and plan the query, run it, render it. *)

open Tpdb
open Checks

let options = Nj.options ~parallelism:1 ~sanitize:false ()

let load dir q =
  List.map
    (fun (rel : Inputs.rel) -> Csv.load ~name:rel.name (Inputs.path dir rel))
    (inputs q)

let catalog rels =
  let c = Catalog.create () in
  List.iter (Catalog.register c) rels;
  c

let plan c ast = Planner.plan ~parallelism:1 ~sanitize:false c ast
let render r = Format.asprintf "%a" Relation.pp r

(* [(loaded inputs, result, rendered text)] *)
let op dir q =
  let rels = load dir q in
  let result = Planner.run (plan (catalog rels) (Parser.parse q.sql)) in
  (rels, result, render result)

let count s = Seq.fold_left (fun n _ -> n + 1) 0 s

(* The window stream each operator needs, on the join's inputs. Inner
   has no public WO-only stream and takes WUO; full outer takes both
   sides' WUON, so its WO windows are swept twice. *)
let sweep ~options kind theta l r =
  let wuon theta a b = ignore (count (Nj.windows_wuon ~options ~theta a b)) in
  match kind with
  | Nj.Inner -> ignore (count (Nj.windows_wuo ~options ~theta l r))
  | Nj.Anti | Nj.Left -> wuon theta l r
  | Nj.Right -> wuon (Theta.swap theta) r l
  | Nj.Full ->
      wuon theta l r;
      wuon (Theta.swap theta) r l

(* A join's sweep and the whole [Nj.join] timed apart on the same
   inputs: (output, sweep ms, join ms, minor words of the join). *)
let side_join ~options ~env kind theta l r =
  let (), sweep_ms = Util.timed (fun () -> sweep ~options kind theta l r) in
  let w0 = Gc.minor_words () in
  let out, join_ms = Util.timed (fun () -> Nj.join ~options ~env ~kind ~theta l r) in
  (out, sweep_ms, join_ms, Gc.minor_words () -. w0)

(* Samples of the join layers; formation is the join's time minus its
   sweep's. *)
let sample_joins layers ~sweep_ms ~join_ms ~words ~rows =
  let s = Layers.sample layers in
  s "windows.sweep_ms" sweep_ms;
  s "joins.formation_ms" (join_ms -. sweep_ms);
  s "joins.minor_words_per_row" (words /. float_of_int (max 1 rows))

(* One operation with each layer timed, then each join's sweep and
   [Nj.join] timed again on the same inputs outside the operation. The
   Metrics sink [m] counts the operation only. Returns the rendered
   text. *)
let traced_op layers m dir q =
  Metrics.install m;
  let t0 = Util.now () in
  let rels, load_ms = Util.timed (fun () -> load dir q) in
  let c = catalog rels in
  let ast, parse_ms = Util.timed (fun () -> Parser.parse q.sql) in
  let p, plan_ms = Util.timed (fun () -> plan c ast) in
  let result = Planner.run p in
  let text, render_ms = Util.timed (fun () -> render result) in
  let total_ms = 1000.0 *. (Util.now () -. t0) in
  Metrics.uninstall ();
  let env = Relation.prob_env rels in
  let _, sweep_ms, join_ms, words, rows =
    List.fold_left2
      (fun (l, sw, jn, words, rows) j r ->
        let out, s_ms, j_ms, w = side_join ~options ~env j.kind j.theta l r in
        (out, sw +. s_ms, jn +. j_ms, words +. w, rows + Relation.cardinality out))
      (List.hd rels, 0.0, 0.0, 0.0, 0)
      q.joins (List.tl rels)
  in
  sample_joins layers ~sweep_ms ~join_ms ~words ~rows;
  let s = Layers.sample layers in
  s "relation.csv_load_ms" load_ms;
  s "query.parse_ms" parse_ms;
  s "query.plan_ms" plan_ms;
  s "relation.render_ms" render_ms;
  s "relation.render_bytes" (float_of_int (String.length text));
  s "op.unattributed_ms"
    (total_ms -. load_ms -. parse_ms -. plan_ms -. render_ms -. join_ms);
  s "traced_op_ms" total_ms;
  text

(* All independent checks of one query's output. *)
let verify ~dir ~keys (q, rels, result) =
  oracle_sample q ~loaded:rels ~keys result
  @ tiling q ~dir result
  @ anti_probabilities q ~dir result

(* [n] seeded keys of the query's left input. *)
let sample_keys rng n q =
  let key = (List.hd q.joins).key_l in
  let all =
    Array.to_list q.left.rows
    |> List.map (fun (r : Inputs.row) -> List.nth r.fact key)
    |> List.sort_uniq compare |> Array.of_list
  in
  List.init n (fun _ -> all.(Util.Rng.int rng (Array.length all)))
  |> List.sort_uniq compare
