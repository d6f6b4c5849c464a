(* Timing, percentiles, memory and the result record every workload
   returns. *)

let now = Unix.gettimeofday
let us x = x *. 1e6

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let sorted xs = List.sort compare xs

let median xs =
  match sorted xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(** The tail of a latency sample: the highest percentile that still has
    at least ten samples beyond it, as (value, percentile, samples).
    With ten samples or fewer no such percentile exists; the maximum is
    reported, as percentile 100. *)
let tail xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then (nan, 100., 0)
  else if n <= 10 then (a.(n - 1), 100., n)
  else (a.(n - 11), 100. *. float_of_int (n - 10) /. float_of_int n, n)

(** The tail over consecutive windows of [window] samples, oldest first:
    the median of the complete windows' {!tail}s, as (value, percentile,
    samples per window, windows). A burst of slow samples from other
    load on a shared host lands in one window, not in the median. With
    no complete window, the tail of all samples. *)
let windowed_tail ~window xs =
  let rec chunks acc cur n = function
    | [] -> List.rev acc
    | x :: rest ->
      if n + 1 = window then chunks (List.rev (x :: cur) :: acc) [] 0 rest
      else chunks acc (x :: cur) (n + 1) rest
  in
  match chunks [] [] 0 xs with
  | [] ->
    let v, pct, n = tail xs in
    (v, pct, n, 1)
  | ws ->
    let tails = List.map tail ws in
    let _, pct, _ = List.hd tails in
    (median (List.map (fun (v, _, _) -> v) tails), pct, window, List.length ws)

(** Set up [n] times from a collected heap, [f] returning its result and
    the time it spent in the program; each result is dropped, after
    [release], before the next set-up. Returns the last result and the
    median time. *)
let repeat_setup ?(release = ignore) n f =
  let last = ref None and spent = ref [] in
  for _ = 1 to n do
    Option.iter release !last;
    last := None;
    Gc.full_major ();
    let v, dt = f () in
    last := Some v;
    spent := dt :: !spent
  done;
  (Option.get !last, median !spent)

(** Peak resident set size of this process in MB (VmHWM). *)
let peak_rss_mb () =
  let from_proc () =
    let ic = open_in "/proc/self/status" in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec scan () =
          match input_line ic with
          | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:"
            ->
            Scanf.sscanf
              (String.sub line 6 (String.length line - 6))
              " %d kB"
              (fun kb -> Some (float_of_int kb /. 1024.))
          | _ -> scan ()
          | exception End_of_file -> None
        in
        scan ())
  in
  match (try from_proc () with Sys_error _ -> None) with
  | Some mb -> mb
  | None ->
    (* No procfs: the OCaml heap high-water mark is the closest proxy. *)
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let frac a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* The solver's counters since its last [reset_stats]. *)
let smt_layers () =
  let module Solver = Vdp_smt.Solver in
  let s = Solver.stats in
  [
    m "smt.queries" "count" (float_of_int s.Solver.calls);
    m "smt.cache_hit_frac" "frac" (frac s.Solver.cache_hits s.Solver.calls);
    m "smt.interval_refuted_frac" "frac"
      (frac s.Solver.interval_refutations s.Solver.calls);
    m "smt.preprocess_s" "s" s.Solver.preprocess_time;
    m "smt.blast_s" "s" s.Solver.blast_time;
    m "smt.sat_s" "s" s.Solver.sat_time;
    m "smt.sat_clauses" "count" (float_of_int s.Solver.sat_clauses);
  ]

type result = {
  attempted : int;
  failed : int;
  correct : bool;
  e2e : metric list;  (** end-to-end metrics, from the untraced phase *)
  layers : metric list;  (** per-layer metrics, from the traced phase *)
  notes : string list;  (** human-readable lines printed before the JSON *)
}

(** Latency notes, in seconds: the median, the tail, and the percentile
    and sample count the tail stands on. *)
let tail_note label xs =
  let v, pct, n = tail xs in
  Printf.sprintf "%s: p50 %.6f s, tail %.6f s = p%.2f of %d samples%s" label
    (median xs) v pct n
    (if n <= 10 then " (maximum: too few samples for a percentile)" else "")

let windowed_note label ~window xs =
  let v, pct, w, k = windowed_tail ~window xs in
  Printf.sprintf
    "%s: p50 %.6f s, tail %.6f s = median over %d windows of each window's \
     p%.2f (%d samples per window)"
    label (median xs) v k pct w

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let result_json r metrics =
  let fields =
    List.map
      (fun x ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}"
          (Trace.json_string x.name) (json_float x.value)
          (Trace.json_string x.unit_))
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed
    (String.concat ", " fields)
