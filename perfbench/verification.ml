(* The two verification workloads, both on fixed inputs (the seed does
   not change them): verify_suite (cold-cache certified single-pipeline
   verdicts with known answers) and fabric_props (the relational
   property suite of the two-tenant NAT fabric). A pass starts from
   empty verification caches and ends when every verdict is in. *)

module Click = Vdp_click
module Pipeline = Vdp_click.Pipeline
module V = Vdp_verif.Verifier
module Summaries = Vdp_verif.Summaries
module Solver = Vdp_smt.Solver
module Cert = Vdp_cert.Certificate
module Config = Vdp_click.Config
module F = Vdp_topo.Fabric
module R = Vdp_topo.Relation
module Q = Vdp_topo.Query
open Measure

let cold_caches () =
  Summaries.clear ();
  Solver.Cache.clear Solver.shared_cache

(* What the passes of one run observed. *)
type acc = {
  mutable verdicts : float list;  (** seconds per verdict *)
  mutable passes : float list;  (** seconds per pass: wall to all verdicts *)
  mutable attempted : int;
  mutable failed : int;
  mutable notes : string list;
  mutable witnesses : int;
  mutable confirmed : int;
  (* counters of the last pass, for the per-layer report *)
  mutable segments : int;
  mutable suspects : int;
  mutable composite_paths : int;
  mutable checks : int;
  mutable certs : Cert.summary list;
  mutable topo_paths : int;
}

let fresh_acc () =
  {
    verdicts = [];
    passes = [];
    attempted = 0;
    failed = 0;
    notes = [];
    witnesses = 0;
    confirmed = 0;
    segments = 0;
    suspects = 0;
    composite_paths = 0;
    checks = 0;
    certs = [];
    topo_paths = 0;
  }

(* One verdict: a request, timed, checked against its known answer. *)
let verdict acc label f =
  let (ok, detail), dt = time (fun () -> Trace.request f) in
  acc.verdicts <- dt :: acc.verdicts;
  acc.attempted <- acc.attempted + 1;
  acc.notes <- Printf.sprintf "%s: %s in %.3f s" label detail dt :: acc.notes;
  if not ok then begin
    acc.failed <- acc.failed + 1;
    acc.notes <- Printf.sprintf "FAIL: %s" label :: acc.notes
  end

(* Passes until the measured window is spent; at least one, and a
   further one only if it should fit in the window. *)
let passes acc ~seconds pass =
  let deadline = now () +. seconds in
  let rec go () =
    let (), dt = time pass in
    acc.passes <- dt :: acc.passes;
    if now () +. dt <= deadline then go ()
  in
  go ()

let cert_complete = function
  | Some (s : Cert.summary) ->
    s.Cert.failed = 0 && s.Cert.certified = s.Cert.attempted
  | None -> false

let cert_note = function
  | Some (s : Cert.summary) ->
    Printf.sprintf "%d/%d refutations certified" s.Cert.certified
      s.Cert.attempted
  | None -> "no certificate summary"

let e2e acc ~setup_s =
  let lat_v, _, _ = tail acc.verdicts and ctl_v, _, _ = tail acc.passes in
  let total = List.fold_left ( +. ) 0. acc.passes in
  [
    m "setup_s" "s" setup_s;
    m "rate_per_s" "1/s" (float_of_int (List.length acc.verdicts) /. total);
    m "lat_p50_us" "us" (us (median acc.verdicts));
    m "lat_tail_us" "us" (us lat_v);
    m "ctl_p50_us" "us" (us (median acc.passes));
    m "ctl_tail_us" "us" (us ctl_v);
  ]

let witness_layer acc =
  m "witness.confirmed_frac" "frac" (frac acc.confirmed acc.witnesses)

(* The traced run reports the tracing overhead of a pass as the measured
   cost of recording its spans over the pass's wall time: a second,
   untraced pass in the same process would not be a fair baseline, since
   later passes run on a heap the first one grew. *)
let overhead_layer ~nspans ~wall =
  m "trace.overhead_frac" "frac"
    (float_of_int nspans *. Trace.span_cost () /. wall)

(* {1 verify_suite} *)

type check = Crash_proved | Crash_violated | Bound of int

(* An element-market pipeline around a candidate that trusts a header
   field as a load offset: a planted crash. *)
let market_pipeline () =
  let mk name cls config = Click.Registry.make ~name ~cls ~config in
  Pipeline.linear
    [
      mk "cl" "Classifier" [ "12/0800" ];
      mk "strip" "Strip" [ "14" ];
      mk "chk" "CheckIPHeader" [];
      mk "candidate" "BuggyPeek" [];
      mk "ttl" "DecIPTTL" [];
    ]

let suite_inputs () =
  [
    ("examples/router.click", Config.parse_file "examples/router.click");
    ("NetFlow+NAT", Config.parse Dataplane.nat_config);
    ("examples/firewall.click", Config.parse_file "examples/firewall.click");
    ("market BuggyPeek", market_pipeline ());
  ]

(* The known answers. The firewall's instruction bound stays out, as in
   the certification experiment: its segment count makes it impractical. *)
let suite =
  [
    ("examples/router.click", Crash_proved);
    ("examples/router.click", Bound 2668);
    ("NetFlow+NAT", Crash_proved);
    ("NetFlow+NAT", Bound 545);
    ("examples/firewall.click", Crash_proved);
    ("market BuggyPeek", Crash_violated);
  ]

let suite_pass inputs acc () =
  cold_caches ();
  Solver.reset_stats ();
  acc.segments <- 0;
  acc.suspects <- 0;
  acc.composite_paths <- 0;
  acc.checks <- 0;
  acc.certs <- [];
  let config = { V.default_config with V.certify = true } in
  let summarized = Hashtbl.create 4 in
  let count (s : V.stats) ~crash =
    if crash then begin
      acc.segments <- acc.segments + s.V.segments_total;
      acc.suspects <- acc.suspects + s.V.suspects
    end;
    acc.composite_paths <- acc.composite_paths + s.V.composite_paths;
    acc.checks <- acc.checks + s.V.suspect_checks
  in
  List.iter
    (fun (name, check) ->
      let pl = List.assoc name inputs in
      let label =
        match check with
        | Crash_proved | Crash_violated -> name ^ " crash"
        | Bound _ -> name ^ " bound"
      in
      verdict acc label (fun () ->
          if not (Hashtbl.mem summarized name) then begin
            Hashtbl.add summarized name ();
            ignore
              (Trace.span "Summaries.of_pipeline" (fun () ->
                   Summaries.of_pipeline pl))
          end;
          match check with
          | Crash_proved | Crash_violated -> (
            let r =
              Trace.span "Verifier.check_crash_freedom" (fun () ->
                  V.check_crash_freedom ~config pl)
            in
            count r.V.stats ~crash:true;
            Option.iter (fun c -> acc.certs <- c :: acc.certs) r.V.cert;
            match (check, r.V.verdict) with
            | Crash_proved, V.Proved ->
              (cert_complete r.V.cert, "proved, " ^ cert_note r.V.cert)
            | Crash_violated, V.Violated vs ->
              let n = List.length vs in
              let c = List.length (List.filter (fun v -> v.V.confirmed) vs) in
              acc.witnesses <- acc.witnesses + n;
              acc.confirmed <- acc.confirmed + c;
              ( n > 0 && c = n,
                Printf.sprintf "%d of %d witnesses confirmed" c n )
            | _ -> (false, "unexpected verdict"))
          | Bound b ->
            let r =
              Trace.span "Verifier.instruction_bound" (fun () ->
                  V.instruction_bound ~config pl)
            in
            count r.V.b_stats ~crash:false;
            Option.iter (fun c -> acc.certs <- c :: acc.certs) r.V.b_cert;
            ( r.V.bound = Some b && cert_complete r.V.b_cert,
              Printf.sprintf "bound %s (expected %d), %s"
                (match r.V.bound with
                | Some x -> string_of_int x
                | None -> "none")
                b (cert_note r.V.b_cert) )))
    suite

let verify_suite_run ~seed:_ ~seconds ~traced =
  let acc = fresh_acc () in
  Trace.enabled := traced;
  (* Parsing and building the inputs takes under a millisecond: many
     repetitions keep its median steady. *)
  let inputs, setup_s = repeat_setup 21 (fun () -> time suite_inputs) in
  Trace.reset ();
  passes acc ~seconds (suite_pass inputs acc);
  Trace.enabled := false;
  let layers =
    if not traced then []
    else begin
      let selfs = Trace.self_times () in
      let sum f = List.fold_left (fun a s -> a + f s) 0 acc.certs in
      let sumf f = List.fold_left (fun a s -> a +. f s) 0. acc.certs in
      let attempted = sum (fun s -> s.Cert.attempted) in
      [
        overhead_layer ~nspans:(List.length !Trace.spans)
          ~wall:(List.fold_left ( +. ) 0. acc.passes);
        m "symbex.step1_s" "s" (Trace.self_total selfs "Summaries.of_pipeline");
        m "symbex.segments" "count" (float_of_int acc.segments);
        m "symbex.suspects" "count" (float_of_int acc.suspects);
        m "verifier.crash_s" "s"
          (Trace.self_total selfs "Verifier.check_crash_freedom");
        m "verifier.bound_s" "s"
          (Trace.self_total selfs "Verifier.instruction_bound");
        m "verifier.composite_paths" "count" (float_of_int acc.composite_paths);
        m "verifier.checks" "count" (float_of_int acc.checks);
        witness_layer acc;
        m "cert.certified_frac" "frac"
          (frac (sum (fun s -> s.Cert.certified)) attempted);
        m "cert.solve_s" "s" (sumf (fun s -> s.Cert.solve_seconds));
        m "cert.check_s" "s" (sumf (fun s -> s.Cert.check_seconds));
      ]
      @ smt_layers ()
    end
  in
  {
    attempted = acc.attempted;
    failed = acc.failed;
    correct = acc.failed = 0;
    e2e = e2e acc ~setup_s;
    layers;
    notes =
      List.rev acc.notes
      @ [
          "fixed inputs: the seed does not change this workload";
          tail_note "verdict latency" acc.verdicts;
          tail_note "pass (wall time to all verdicts)" acc.passes;
        ];
  }

(* {1 fabric_props} *)

let fabric_file = "examples/multi_tenant.click"

(* The declared properties kept in the workload, with fabric
   crash-freedom run after them. The two tenants are mirror images, so
   tenant b's reach, isolate and temporal properties repeat tenant a's
   queries on the same shapes; they are left out to keep a pass near a
   minute. *)
let fabric_props (fab : F.t) =
  let kept =
    Config.
      [
        Reach ("a", "wan_out");
        Isolate ("a", "lan_b");
        Temporal ("wan", "lan_a");
      ]
  in
  List.iter
    (fun p ->
      if not (List.mem p fab.F.props) then
        failwith (fabric_file ^ " no longer declares " ^ Q.prop_to_string p))
    kept;
  kept

let prop_kind = function
  | Config.Reach _ -> "reach"
  | Config.Isolate _ -> "isolate"
  | Config.Temporal _ -> "temporal"

let fabric_setup () =
  cold_caches ();
  let fab = Trace.span "Fabric.of_source" (fun () -> F.of_source fabric_file) in
  let rel = Trace.span "Relation.build" (fun () -> R.build fab) in
  (fab, rel)

let fabric_pass fab acc () =
  cold_caches ();
  Solver.reset_stats ();
  acc.topo_paths <- 0;
  acc.checks <- 0;
  let s = Trace.span "Query.session" (fun () -> Q.session fab) in
  List.iter
    (fun prop ->
      verdict acc (Q.prop_to_string prop) (fun () ->
          let r, _ =
            Trace.span ("Query.query:" ^ prop_kind prop) (fun () ->
                Q.query s prop)
          in
          acc.topo_paths <- acc.topo_paths + r.Q.paths;
          acc.checks <- acc.checks + r.Q.checks;
          let ok =
            match (prop, r.Q.verdict) with
            | (Config.Reach _ | Config.Temporal _), Q.Holds (Some f) ->
              acc.witnesses <- acc.witnesses + 1;
              if f.Q.w_confirmed then acc.confirmed <- acc.confirmed + 1;
              f.Q.w_confirmed
            | Config.Isolate _, Q.Holds None -> true
            | _ -> false
          in
          (ok, Q.verdict_to_string r.Q.verdict)))
    (fabric_props fab);
  verdict acc "fabric crash-freedom" (fun () ->
      let rel = Trace.span "Relation.build" (fun () -> R.build fab) in
      let c = Trace.span "Query.verify_crash" (fun () -> Q.verify_crash rel) in
      acc.topo_paths <- acc.topo_paths + c.Q.c_paths;
      match c.Q.c_verdict with
      | Q.Holds None -> (true, "holds")
      | v -> (false, Q.verdict_to_string v))

let fabric_props_run ~seed:_ ~seconds ~traced =
  let acc = fresh_acc () in
  Trace.enabled := traced;
  let (fab, _), setup_s = repeat_setup 3 (fun () -> time fabric_setup) in
  let build_s =
    median
      (List.map2 ( +. )
         (Trace.durations "Fabric.of_source")
         (Trace.durations "Relation.build"))
  in
  Trace.reset ();
  passes acc ~seconds (fabric_pass fab acc);
  Trace.enabled := false;
  let layers =
    if not traced then []
    else begin
      let selfs = Trace.self_times () in
      let q kind = Trace.self_total selfs ("Query.query:" ^ kind) in
      [
        overhead_layer ~nspans:(List.length !Trace.spans)
          ~wall:(List.fold_left ( +. ) 0. acc.passes);
        m "topo.build_s" "s" build_s;
        m "topo.reach_s" "s" (q "reach");
        m "topo.isolate_s" "s" (q "isolate");
        m "topo.temporal_s" "s" (q "temporal");
        m "topo.crash_s" "s" (Trace.self_total selfs "Query.verify_crash");
        m "topo.paths" "count" (float_of_int acc.topo_paths);
        m "topo.checks" "count" (float_of_int acc.checks);
        witness_layer acc;
      ]
      @ smt_layers ()
    end
  in
  {
    attempted = acc.attempted;
    failed = acc.failed;
    correct = acc.failed = 0;
    e2e = e2e acc ~setup_s;
    layers;
    notes =
      List.rev acc.notes
      @ [
          "fixed inputs: the seed does not change this workload";
          tail_note "verdict latency" acc.verdicts;
          tail_note "pass (wall time to all verdicts)" acc.passes;
        ];
  }
