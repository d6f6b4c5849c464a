(* Spans around the benchmark's calls into the libraries under test.

   A span records name, start, end, the span that was open when it
   started (its parent) and the request it belongs to. A request is one
   batch, one route change or one verdict. Spans stay in memory and are
   written out once, when the run ends. With tracing off, [span] costs
   one branch and the call itself. *)

type span = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int;  (** -1 at top level *)
  req : int;  (** -1 outside any request *)
}

let enabled = ref false
let spans : span list ref = ref []
let next_id = ref 0
let open_spans : int list ref = ref []
let cur_req = ref (-1)
let next_req = ref 0

let now = Unix.gettimeofday

let span name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_spans with p :: _ -> p | [] -> -1 in
    open_spans := id :: !open_spans;
    let req = !cur_req in
    let start = now () in
    let close () =
      let stop = now () in
      open_spans := List.tl !open_spans;
      spans := { id; name; start; stop; parent; req } :: !spans
    in
    match f () with
    | v ->
      close ();
      v
    | exception e ->
      close ();
      raise e
  end

(** Run [f] as one request: every span opened inside carries its id. *)
let request f =
  if not !enabled then f ()
  else begin
    let saved = !cur_req in
    cur_req := !next_req;
    incr next_req;
    Fun.protect ~finally:(fun () -> cur_req := saved) f
  end

let reset () =
  spans := [];
  open_spans := [];
  cur_req := -1

(** Self time of every span: its duration minus the time its children
    cover. Spans nest on one domain, so children never overlap. *)
let self_times () =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let d = s.stop -. s.start in
        Hashtbl.replace child s.parent
          (d +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    !spans;
  List.map
    (fun s ->
      let c = Option.value ~default:0. (Hashtbl.find_opt child s.id) in
      (s, s.stop -. s.start -. c))
    !spans

(** Summed self time of the spans named [name], in seconds. *)
let self_total selfs name =
  List.fold_left
    (fun acc ((s : span), t) -> if s.name = name then acc +. t else acc)
    0. selfs

(** Durations of the spans named [name], oldest first. *)
let durations name =
  List.rev
    (List.filter_map
       (fun s -> if s.name = name then Some (s.stop -. s.start) else None)
       !spans)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(** Write every span as one JSON object per line, oldest first. *)
let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%s,\"start\":%.6f,\"end\":%.6f,\
         \"parent\":%d,\"req\":%d}\n"
        s.id (json_string s.name) s.start s.stop s.parent s.req)
    (List.rev !spans);
  close_out oc

(** Measured cost of recording one span, in seconds: a loop of empty
    spans with tracing on, less the same loop with tracing off. The
    calibration spans are discarded. *)
let span_cost () =
  let n = 100_000 in
  let saved = !spans and was = !enabled in
  let loop () =
    let t0 = now () in
    for _ = 1 to n do
      span "calibrate" ignore
    done;
    now () -. t0
  in
  enabled := false;
  let off = loop () in
  enabled := true;
  let on = loop () in
  enabled := was;
  spans := saved;
  Float.max 0. ((on -. off) /. float_of_int n)
