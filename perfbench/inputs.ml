(* Seeded input relations, written as the engine's CSV format, and an
   independent reader of those CSV files for the output checks.

   A relation's lineage variables are [<tag><index>] with a tag of its
   own, so relations loaded into one catalog never share a variable. *)

type row = {
  fact : string list;
  var : int;  (* lineage variable index *)
  ts : int;
  te : int;
  p : float;
}

type rel = { name : string; tag : string; cols : string list; rows : row array }

let csv_text rel =
  let b = Buffer.create (64 * (Array.length rel.rows + 1)) in
  Buffer.add_string b (String.concat "," (rel.cols @ [ "lineage"; "ts"; "te"; "p" ]));
  Buffer.add_char b '\n';
  Array.iter
    (fun r ->
      List.iter (fun v -> Buffer.add_string b v; Buffer.add_char b ',') r.fact;
      Printf.bprintf b "%s%d,%d,%d,%.12g\n" rel.tag r.var r.ts r.te r.p)
    rel.rows;
  Buffer.contents b

let path dir rel = Filename.concat dir (rel.name ^ ".csv")
let write dir rel = Util.write_file (path dir rel) (csv_text rel)

(* Reads a CSV file back without the engine's loader: the checks
   recompute expected values from these rows. *)
let read_csv ~tag path =
  match String.split_on_char '\n' (Util.read_file path) with
  | [] -> [||]
  | _header :: lines ->
      lines
      |> List.filter (fun l -> l <> "")
      |> List.map (fun line ->
             let cells = Array.of_list (String.split_on_char ',' line) in
             let n = Array.length cells in
             let lin = cells.(n - 4) in
             let tl = String.length tag in
             if String.sub lin 0 tl <> tag then failwith ("bad lineage " ^ lin);
             {
               fact = Array.to_list (Array.sub cells 0 (n - 4));
               var = int_of_string (String.sub lin tl (String.length lin - tl));
               ts = int_of_string cells.(n - 3);
               te = int_of_string cells.(n - 2);
               p = float_of_string cells.(n - 1);
             })
      |> Array.of_list

(* A random point of slot [i] of [n] equal slots of [0, horizon).
   Starts are stratified rather than uniform so that how much the
   chains overlap, and with it the join's work, varies little between
   seeds. *)
let slot rng ~horizon i n = (i * horizon / n) + Util.Rng.int rng (max 1 (horizon / n))

(* One chain of consecutive intervals from [start]: mean length [dur],
   a gap before a link with probability [gap]. *)
let chain rng ~start ~dur ~gap ~len emit =
  let t = ref start in
  for j = 0 to len - 1 do
    if Util.Rng.float rng < gap then t := !t + 1 + Util.Rng.int rng dur;
    let d = 1 + Util.Rng.int rng (2 * dur) in
    emit j !t (!t + d);
    t := !t + d
  done

let build ~name ~tag ~cols gen =
  let rows = ref [] and n = ref 0 in
  gen (fun fact ts te p ->
      incr n;
      rows := { fact; var = !n; ts; te; p } :: !rows);
  { name; tag; cols; rows = Array.of_list (List.rev !rows) }

(* Webkit-shaped: (File, Rev), [files] files each a chain of [per_file]
   revisions; the join on File is selective. *)
let webkit rng ~name ~tag ~files ~per_file =
  build ~name ~tag ~cols:[ "File"; "Rev" ] (fun emit ->
      for f = 0 to files - 1 do
        let start = slot rng ~horizon:4000 f files in
        chain rng ~start ~dur:40 ~gap:0.3 ~len:per_file (fun j ts te ->
            emit [ Printf.sprintf "file%d" f; Printf.sprintf "rev%d" j ] ts te
              (Util.Rng.prob rng))
      done)

let metrics = [| "temp"; "humidity"; "wind"; "pressure"; "rain"; "sun" |]

(* Meteo-shaped: (Station, Metric), one chain per station and metric;
   only six metrics, so the join on Metric is unselective. *)
let meteo rng ~name ~tag ~stations ~per_pair =
  build ~name ~tag ~cols:[ "Station"; "Metric" ] (fun emit ->
      for st = 0 to stations - 1 do
        Array.iter
          (fun m ->
            let start = slot rng ~horizon:500 st stations in
            chain rng ~start ~dur:25 ~gap:0.5 ~len:per_pair (fun _ ts te ->
                emit [ Printf.sprintf "st%d" st; m ] ts te (Util.Rng.prob rng)))
          metrics
      done)

(* Few keys, long intervals: many tuples of one key are valid at once,
   so a negated side's disjunction is wide. (K, Id) keeps the relation
   duplicate-free. *)
let dense rng ~name ~tag ~keys ~size ~horizon ~dur =
  build ~name ~tag ~cols:[ "K"; "Id" ] (fun emit ->
      for i = 0 to size - 1 do
        let ts = slot rng ~horizon (i / keys) (size / keys) in
        let te = ts + 1 + Util.Rng.int rng (2 * dur) in
        emit [ Printf.sprintf "k%d" (i mod keys); string_of_int i ] ts te
          (Util.Rng.prob rng)
      done)
