(* Output checks computed apart from the engine's own join code:

   - [oracle_sample]: the snapshot-semantics oracle on a seeded sample
     of join keys, diffed against the output rows of those keys;
   - [tiling]: for outer and anti joins, the null-padded rows of every
     preserved input tuple tile its interval exactly (WU ∪ WN = r.T);
   - [anti_probabilities]: each null-padded row over base relations has
     p = p(r)·Π(1 − p(s)) over the negated-side tuples valid over the
     row, with p and intervals read back from the input CSV files.

   Each returns a list of human-readable problems, empty when the
   output passes. *)

open Tpdb

(* One TP join of a left-deep query: its kind, θ, the base relation on
   the right, and the key column of each input (of the left input, in
   the left input's own schema). *)
type join = {
  kind : Nj.join_kind;
  theta : Theta.t;
  right : Inputs.rel;
  key_l : int;
  key_r : int;
}

type query = {
  label : string;
  sql : string;
  left : Inputs.rel;
  joins : join list;
  equi : bool;  (* θ has no temporal (Allen) atom *)
}

let inputs q = q.left :: List.map (fun j -> j.right) q.joins

(* Output positions that hold a join key, left input's first; a row's
   key is the first non-null one. *)
let key_positions q =
  let arity rel = List.length rel.Inputs.cols in
  let _, keys =
    List.fold_left
      (fun (ar, keys) j ->
        match j.kind with
        | Nj.Anti -> (ar, keys)
        | _ -> (ar + arity j.right, keys @ [ ar + j.key_r ]))
      (arity q.left, [ (List.hd q.joins).key_l ])
      q.joins
  in
  keys

let row_key positions tp =
  let fact = Tuple.fact tp in
  List.find_map
    (fun i ->
      if i < Fact.arity fact then
        match Fact.get fact i with
        | Value.Null -> None
        | v -> Some (Value.to_string v)
      else None)
    positions

let restrict col keys rel =
  Relation.filter
    (fun tp -> List.mem (Value.to_string (Fact.get (Tuple.fact tp) col)) keys)
    rel

(* [loaded] are the query's inputs as the engine loaded them, in
   [inputs q] order. *)
let oracle_sample q ~loaded ~keys actual =
  let env = Relation.prob_env loaded in
  let left = restrict (List.hd q.joins).key_l keys (List.hd loaded) in
  let expected =
    List.fold_left2
      (fun acc j right ->
        Oracle.eval ~env ~kind:j.kind ~theta:j.theta acc
          (restrict j.key_r keys right))
      left q.joins (List.tl loaded)
  in
  let positions = key_positions q in
  let actual_k =
    Relation.filter
      (fun tp ->
        match row_key positions tp with
        | Some k -> List.mem k keys
        | None -> false)
      actual
  in
  let expected =
    Relation.of_tuples (Relation.schema actual_k) (Relation.tuples expected)
  in
  Oracle.diff ~expected ~actual:actual_k
  |> List.map (fun m -> q.label ^ ": oracle: " ^ Oracle.mismatch_to_string m)

(* Sides of a single base-relation join whose tuples are preserved with
   null padding: (preserved, negated, key of preserved, key of negated,
   output positions of the other side's columns — all null on a
   null-padded row). *)
let preserved_sides q =
  match q.joins with
  | [ j ] -> (
      let nl = List.length q.left.cols and nr = List.length j.right.cols in
      let range a n = List.init n (fun i -> a + i) in
      let left_side = (q.left, j.right, j.key_l, j.key_r, range nl nr) in
      let right_side = (j.right, q.left, j.key_r, j.key_l, range 0 nl) in
      match j.kind with
      | Nj.Inner -> []
      | Nj.Anti -> [ (q.left, j.right, j.key_l, j.key_r, []) ]
      | Nj.Left -> [ left_side ]
      | Nj.Right -> [ right_side ]
      | Nj.Full -> [ left_side; right_side ])
  | _ -> []

let null_padded others tp =
  let fact = Tuple.fact tp in
  List.for_all (fun i -> Value.is_null (Fact.get fact i)) others

let vars_of_tag tag lineage =
  List.filter_map
    (fun v -> if Var.rel v = tag then Some (Var.idx v) else None)
    (Formula.vars lineage)
  |> List.sort_uniq compare

(* The rows of each preserved tuple, grouped by its lineage variable. *)
let padded_rows ~(pres : Inputs.rel) others actual =
  let by_var = Hashtbl.create 1024 in
  let problems = ref [] in
  Relation.to_seq actual
  |> Seq.iter (fun tp ->
         if null_padded others tp then
           match vars_of_tag pres.tag (Tuple.lineage tp) with
           | [ v ] ->
               Hashtbl.replace by_var v
                 (tp :: Option.value ~default:[] (Hashtbl.find_opt by_var v))
           | _ ->
               problems :=
                 Printf.sprintf "row %s names no single %s tuple"
                   (Tuple.to_string tp) pres.name
                 :: !problems);
  (by_var, !problems)

let tiling q ~dir actual =
  List.concat_map
    (fun ((pres : Inputs.rel), _, _, _, others) ->
      let rows = Inputs.read_csv ~tag:pres.tag (Inputs.path dir pres) in
      let by_var, problems = padded_rows ~pres others actual in
      let tile (r : Inputs.row) =
        let ivs =
          Option.value ~default:[] (Hashtbl.find_opt by_var r.var)
          |> List.map (fun tp -> Tuple.iv tp)
          |> List.sort Interval.compare_start
        in
        let rec covers t = function
          | [] -> t = r.te
          | iv :: rest -> Interval.ts iv = t && covers (Interval.te iv) rest
        in
        if covers r.ts ivs then None
        else
          Some
            (Printf.sprintf "%s: %s%d [%d,%d) is not tiled by its %d rows"
               q.label pres.tag r.var r.ts r.te (List.length ivs))
      in
      problems @ List.filter_map tile (Array.to_list rows))
    (preserved_sides q)

let anti_probabilities q ~dir actual =
  if not q.equi then []
  else
    List.concat_map
      (fun ((pres : Inputs.rel), (neg : Inputs.rel), kp, kn, others) ->
        let prow = Inputs.read_csv ~tag:pres.tag (Inputs.path dir pres) in
        let nrows = Inputs.read_csv ~tag:neg.tag (Inputs.path dir neg) in
        let by_key = Hashtbl.create 256 in
        Array.iter
          (fun (r : Inputs.row) ->
            let k = List.nth r.fact kn in
            Hashtbl.replace by_key k
              (r :: Option.value ~default:[] (Hashtbl.find_opt by_key k)))
          nrows;
        let by_var, problems = padded_rows ~pres others actual in
        let row_of = Hashtbl.create (Array.length prow) in
        Array.iter (fun (r : Inputs.row) -> Hashtbl.replace row_of r.var r) prow;
        let check v tps =
          let r = Hashtbl.find row_of v in
          let k = List.nth r.fact kp in
          List.filter_map
            (fun tp ->
              let ts = Interval.ts (Tuple.iv tp) and te = Interval.te (Tuple.iv tp) in
              let valid =
                List.filter
                  (fun (n : Inputs.row) -> n.ts < te && ts < n.te)
                  (Option.value ~default:[] (Hashtbl.find_opt by_key k))
              in
              let expected =
                List.fold_left (fun acc (n : Inputs.row) -> acc *. (1.0 -. n.p))
                  r.p valid
              in
              let vars = List.sort compare (List.map (fun (n : Inputs.row) -> n.var) valid) in
              if List.exists (fun (n : Inputs.row) -> n.ts > ts || n.te < te) valid
              then Some (Printf.sprintf "%s: row %s straddles a %s tuple" q.label
                           (Tuple.to_string tp) neg.name)
              else if vars <> vars_of_tag neg.tag (Tuple.lineage tp) then
                Some (Printf.sprintf "%s: row %s negates the wrong %s tuples"
                        q.label (Tuple.to_string tp) neg.name)
              else if Float.abs (Tuple.p tp -. expected) > 1e-9 then
                Some (Printf.sprintf "%s: row %s has p %.12g, expected %.12g"
                        q.label (Tuple.to_string tp) (Tuple.p tp) expected)
              else None)
            tps
        in
        problems
        @ List.concat (Hashtbl.fold (fun v tps acc -> check v tps :: acc) by_var []))
      (preserved_sides q)
