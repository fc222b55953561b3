(* Timing, statistics, seeded randomness and result printing shared by
   every workload. *)

(* Seconds on the engine's monotonic clock (nanosecond resolution). *)
let now () = float_of_int (Tpdb.Obs_clock.now_ns ()) /. 1e9

(* [timed f] runs [f] and returns its result with the elapsed time in
   milliseconds. *)
let timed f =
  let t0 = now () in
  let x = f () in
  (x, 1000.0 *. (now () -. t0))

(* Linear-interpolation quantile of an unsorted sample, the same rule
   as Python's [statistics.quantiles(..., method="inclusive")]. *)
let quantile xs q =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let a = Array.copy xs in
    Array.sort Float.compare a;
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))
  end

let median xs = quantile xs 0.5

(* The highest of p75/p90/p99 with at least ten samples beyond it at
   [ops] operations; [ops] is a workload's fixed minimum count, so the
   chosen percentile never changes between runs. *)
let tail_quantile ops =
  List.fold_left
    (fun best pct -> if ops * (100 - pct) >= 1000 then pct else best)
    50 [ 75; 90; 99 ]
  |> fun pct -> float_of_int pct /. 100.0

(* SplitMix64: the benchmark's own generator, so its inputs depend on
   the seed alone and not on any engine module. *)
module Rng = struct
  type t = { mutable s : int64 }

  let make seed = { s = Int64.of_int (seed * 0x9E3779B1 + 0x7F4A7C15) }

  let next t =
    t.s <- Int64.add t.s 0x9E3779B97F4A7C15L;
    let z = t.s in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
        0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
        0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  (* uniform in [0, bound) *)
  let int t bound =
    Int64.to_int (Int64.unsigned_rem (next t) (Int64.of_int bound))

  (* uniform in [0, 1) with 53 bits *)
  let float t =
    Int64.to_float (Int64.shift_right_logical (next t) 11) /. 9007199254740992.0

  (* a probability in [0.05, 0.95], printed exactly by [%.12g] *)
  let prob t = float_of_int (50 + int t 901) /. 1000.0
end

(* Peak resident set (VmHWM) of a process, in kB; [pid] = None reads
   this process. *)
let vm_hwm_kb ?pid () =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec scan () =
    let line = input_line ic in
    if String.starts_with ~prefix:"VmHWM:" line then
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
    else scan ()
  in
  scan ()

let mkdir_p dir =
  let rec go d =
    if not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
    end
  in
  go dir

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))

let write_file path text =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text)

(* The value of the first ["key": <int>] in a JSON text, or 0. The
   server's STATS reply is the only JSON read here. *)
let json_int text key =
  let pat = "\"" ^ key ^ "\"" in
  let n = String.length text and m = String.length pat in
  let rec find i =
    if i + m > n then None
    else if String.sub text i m = pat then Some (i + m)
    else find (i + 1)
  in
  match find 0 with
  | None -> 0
  | Some i ->
      let j = ref i in
      while !j < n && (text.[!j] = ':' || text.[!j] = ' ') do incr j done;
      let k = ref !j in
      while !k < n && text.[!k] >= '0' && text.[!k] <= '9' do incr k done;
      if !k = !j then 0 else int_of_string (String.sub text !j (!k - !j))

let json_number x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

(* The last line of standard output: the result object. *)
let print_result ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun (name, value, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
          (json_number value) unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " m)

(* Exact per-round counts, printed on their own line before the result
   so steady.py can compare them between runs with the same seed. *)
let print_counts ~steady counts =
  Printf.printf "counts: {\"steady\": %b, %s}\n%!" steady
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf "%S: %d" k v) counts))
