(* The two dataplane workloads: nat_flows (stateful NetFlow+NAT over
   60,000 concurrent flows) and route_churn (a 100k-route radix router
   taking verified route changes while it forwards). Both drive the
   compiled engine closed-loop in 256-packet batches: the next batch is
   sent when the previous one has come back. *)

module P = Vdp_packet.Packet
module Gen = Vdp_packet.Gen
module Ipv4 = Vdp_packet.Ipv4
module B = Vdp_bitvec.Bitvec
module Click = Vdp_click
module Rt = Vdp_click.Runtime
module Pipeline = Vdp_click.Pipeline
module Lookup = Vdp_click.El_lookup
module Fib = Vdp_click.El_lookup.Fib
module Stores = Vdp_ir.Stores
module Sdata = Vdp_ir.Static_data
module V = Vdp_verif.Verifier
module Summaries = Vdp_verif.Summaries
module Staleness = Vdp_verif.Staleness
module Solver = Vdp_smt.Solver
module Lpm = Vdp_tables.Lpm
open Measure

let batch = Rt.default_batch

let node_index pl name =
  let found = ref (-1) in
  Array.iteri
    (fun i (n : Pipeline.node) ->
      if n.Pipeline.element.Click.Element.name = name then found := i)
    (Pipeline.nodes pl);
  if !found < 0 then failwith ("perfbench: no element named " ^ name);
  !found

let egress pl ~node ~port =
  match Pipeline.egress_index pl ~node ~port with
  | Some e -> e
  | None -> failwith "perfbench: port is wired, not an egress"

(* A fixed set of packet buffers refilled in place for every batch, as
   a NIC refills its receive ring: the measured loop allocates no packet
   buffers (a 2 KB buffer would go straight to the major heap, and the
   collector's work would land in the timings). *)
type ring = { slots : P.t array; all : P.t list }

let make_ring () =
  let slots = Array.init batch (fun _ -> P.create "") in
  { slots; all = Array.to_list slots }

let refill (p : P.t) frame =
  let n = String.length frame in
  p.P.head <- P.default_headroom;
  p.P.len <- n;
  Bytes.blit_string frame 0 p.P.buf p.P.head n;
  p.P.port <- 0;
  p.P.color <- 0;
  p.P.w0 <- 0;
  p.P.w1 <- 0

(* The first [k] slots, refilled with [frame 0 .. frame (k - 1)]. *)
let fill ring k frame =
  for i = 0 to k - 1 do
    refill ring.slots.(i) (frame i)
  done;
  if k = batch then ring.all else List.filteri (fun i _ -> i < k) ring.all

(* One closed-loop batch through the instance under test. Per-packet
   finals land in [inst.finals], output bytes in the packets. *)
let run_batch inst pkts =
  Trace.span "Runtime.run_workload" (fun () -> Rt.run_workload inst pkts)

let instantiate engine pl =
  Trace.span "Runtime.instantiate" (fun () -> Rt.instantiate ~engine pl)

(* Replay a batch's inputs through a scalar-interpreter instance and
   count the packets whose final or output bytes differ from what the
   compiled instance produced. *)
let lockstep reference inputs (inst : Rt.instance) outputs =
  let bad = ref 0 in
  List.iteri
    (fun i (input, output) ->
      let r = Rt.push reference input in
      if r.Rt.final <> inst.Rt.finals.(i) || P.content input <> P.content output
      then incr bad)
    (List.combine inputs outputs);
  !bad

(* Counters a phase leaves behind, for the per-layer report. *)
let layer_counters () =
  let st = Staleness.stats in
  [
    m "staleness.mutations" "count" (float_of_int st.Staleness.mutations);
    m "staleness.summaries_dropped" "count"
      (float_of_int st.Staleness.summaries_dropped);
    m "staleness.queries_dropped" "count"
      (float_of_int st.Staleness.queries_dropped);
  ]
  @ smt_layers ()

let reset_counters () =
  Solver.reset_stats ();
  Staleness.reset_stats ()

(* What one measured phase of a dataplane workload observed. *)
type phase = {
  mutable packets : int;
  mutable failed : int;
  mutable busy : float;  (** seconds inside the program under test *)
  mutable round_pkts : int;
  mutable round_busy : float;
  mutable rounds : float list;
      (** packets per second of program time, per round: every flow
          served once (nat_flows), one route change and the packets up
          to the next (route_churn) *)
  mutable instrs : int;
  mutable lat : float list;  (** batch latencies, seconds *)
  mutable ctl : float list;  (** control-path latencies, seconds *)
  mutable first_after : float list;
      (** first batch after each route change, seconds *)
  mutable others_max : float;  (** slowest of the other batches *)
  mutable notes : string list;
}

let fresh_phase () =
  {
    packets = 0;
    failed = 0;
    busy = 0.;
    round_pkts = 0;
    round_busy = 0.;
    rounds = [];
    instrs = 0;
    lat = [];
    ctl = [];
    first_after = [];
    others_max = 0.;
    notes = [];
  }

(* Program time spent in the current round. *)
let charge (p : phase) ~pkts dt =
  p.busy <- p.busy +. dt;
  p.round_busy <- p.round_busy +. dt;
  p.round_pkts <- p.round_pkts + pkts

let close_round (p : phase) ~complete =
  if complete && p.round_busy > 0. then
    p.rounds <- (float_of_int p.round_pkts /. p.round_busy) :: p.rounds;
  p.round_pkts <- 0;
  p.round_busy <- 0.

(* Tracing overhead: the median batch latency of the traced phase over
   that of the untraced phase run just before it, less one. *)
let overhead_layer plain traced =
  m "trace.overhead_frac" "frac" ((median traced.lat /. median plain.lat) -. 1.)

(* Runtime-layer metrics from a traced phase. *)
let runtime_layers (p : phase) =
  let selfs = Trace.self_times () in
  let med = median p.lat in
  let stalls = List.length (List.filter (fun x -> x > 10. *. med) p.lat) in
  [
    m "runtime.busy_s" "s" (Trace.self_total selfs "Runtime.run_workload");
    m "runtime.instrs_per_pkt" "count"
      (if p.packets = 0 then 0.
       else float_of_int p.instrs /. float_of_int p.packets);
    m "runtime.stall_batches" "count" (float_of_int stalls);
    m "runtime.first_batch_after_update_us" "us"
      (if p.first_after = [] then 0. else us (median p.first_after));
  ]

(* {1 nat_flows} *)

(* The NetFlow+NAT configuration of the experiment harness. *)
let nat_config =
  {|
    cl :: Classifier(12/0800, -);
    strip :: Strip(14);
    chk :: CheckIPHeader;
    flow :: FlowCounter;
    nat :: IPRewriter(203.0.113.7);
    cks :: SetIPChecksum;
    out :: EtherEncap(2048, 02:00:00:00:00:01, 02:00:00:00:00:02);
    cl[0] -> strip -> chk -> flow -> nat -> cks -> out;
    cl[1] -> Discard; chk[1] -> Discard; nat[1] -> cks;
    |}

let nat_public_ip = 0xcb007107
let nat_flows = 60_000

(* IPRewriter hands out public ports from 1024 upward, one per new
   (source, source port), so the flow established k-th owns 1024 + k. *)
let nat_first_port = 1024

(* Frames are kept as bytes and copied into the ring per batch: a
   packet buffer is 2 KB, a smallest frame 42-54 bytes. *)
type nat_flow = { flow : Gen.flow; frame : string }

(* Distinct (source, source port) pairs, so every flow takes its own
   NAT mapping; smallest frames (no payload). *)
let gen_nat_flows seed =
  let st = Random.State.make [| 0x6e6174; seed |] in
  let seen = Hashtbl.create nat_flows in
  Array.init nat_flows (fun _ ->
      let rec pick () =
        let src = 0x0a000000 lor Random.State.int st 0x1000000 in
        let sport = 1024 + Random.State.int st 64000 in
        if Hashtbl.mem seen (src, sport) then pick ()
        else begin
          Hashtbl.add seen (src, sport) ();
          (src, sport)
        end
      in
      let src_ip, src_port = pick () in
      let flow =
        {
          Gen.src_ip;
          dst_ip = (Random.State.bits st lsl 2) land 0xffffffff;
          src_port;
          dst_port = 1 + Random.State.int st 1023;
          proto =
            (if Random.State.bool st then Ipv4.proto_udp else Ipv4.proto_tcp);
        }
      in
      { flow; frame = P.content (Gen.frame_of_flow ~payload:"" flow) })

let flow_key (f : Gen.flow) =
  let bv w x = B.of_int ~width:w x in
  B.concat
    (B.concat
       (B.concat (bv 32 f.Gen.src_ip) (bv 32 f.Gen.dst_ip))
       (bv 8 f.Gen.proto))
    (bv 32 ((f.Gen.src_port lsl 16) lor f.Gen.dst_port))

(* Flows [first, first + k) modulo the flow count, as a batch. *)
let nat_batch ring flows first k =
  let n = Array.length flows in
  fill ring k (fun i -> flows.((first + i) mod n).frame)

type nat_env = {
  ring : ring;
  pl : Pipeline.t;
  flows : nat_flow array;
  out_egress : int;
  nat_node : int;
  flow_node : int;
}

(* Set-up: a fresh compiled instance, then every flow's first packet in
   256-packet batches — NAT port allocation plus a new FlowCounter
   entry per packet. The batch latencies are the control-path sample:
   new-flow set-up. Returns the instance and the program time spent. *)
let nat_setup env (p : phase) =
  let inst, dt0 = time (fun () -> instantiate Rt.Compiled env.pl) in
  let spent = ref dt0 in
  let n = Array.length env.flows in
  let pos = ref 0 in
  while !pos < n do
    let k = min batch (n - !pos) in
    let pkts = nat_batch env.ring env.flows !pos k in
    let st, dt =
      time (fun () -> Trace.request (fun () -> run_batch inst pkts))
    in
    spent := !spent +. dt;
    p.ctl <- dt :: p.ctl;
    let lost = k - st.Rt.egressed in
    if lost > 0 then begin
      p.failed <- p.failed + lost;
      let exhausted = ref 0 in
      for i = 0 to k - 1 do
        match inst.Rt.finals.(i) with
        | Rt.Dropped_at node when node = env.nat_node -> incr exhausted
        | _ -> ()
      done;
      if !exhausted > 0 then
        p.notes <-
          Printf.sprintf "FAIL: %d packets dropped by NAT port exhaustion"
            !exhausted
          :: p.notes
    end;
    pos := !pos + k
  done;
  (inst, !spent)

(* The model check on one NAT output: source rewritten to the public
   address, source port to the flow's allocated port. *)
let nat_output_ok out fi =
  let expected_port = nat_first_port + fi in
  P.length out > 36
  && P.get_be out 26 4 = nat_public_ip
  && P.get_be out 34 2 = expected_port

(* Closed loop for [seconds]: batches sweep the flows round-robin from
   [!cursor]. [counts] tracks packets sent per flow. A seeded sample of
   batches is replayed through the scalar [reference] outside the timed
   region. *)
let nat_phase env inst reference ~counts ~cursor ~orng ~seconds (p : phase) =
  let deadline = now () +. seconds in
  let n = Array.length env.flows in
  while now () < deadline do
    let base = !cursor in
    let pkts = nat_batch env.ring env.flows base batch in
    let sampled = Random.State.int orng 64 = 0 in
    let inputs = if sampled then List.map P.clone pkts else [] in
    let st, dt =
      time (fun () -> Trace.request (fun () -> run_batch inst pkts))
    in
    p.lat <- dt :: p.lat;
    charge p ~pkts:st.Rt.sent dt;
    if p.round_pkts >= n then close_round p ~complete:true;
    p.packets <- p.packets + st.Rt.sent;
    p.instrs <- p.instrs + st.Rt.instrs;
    List.iteri
      (fun i out ->
        let fi = (base + i) mod n in
        counts.(fi) <- counts.(fi) + 1;
        if inst.Rt.finals.(i) <> Rt.Egress env.out_egress then
          p.failed <- p.failed + 1
        else if sampled && not (nat_output_ok out fi) then
          p.failed <- p.failed + 1)
      pkts;
    if sampled then p.failed <- p.failed + lockstep reference inputs inst pkts;
    cursor := (base + batch) mod n
  done

(* After the run: every FlowCounter entry equals the packets its flow
   sent, and the stores hold exactly one entry per flow. *)
let nat_check_stores env inst counts (p : phase) =
  let stores = inst.Rt.stores.(env.flow_node) in
  let wrong = ref 0 in
  Array.iteri
    (fun fi (f : nat_flow) ->
      let got = B.to_int_trunc (Stores.read stores "flows" (flow_key f.flow)) in
      if got <> counts.(fi) then incr wrong)
    env.flows;
  if !wrong > 0 then begin
    p.failed <- p.failed + !wrong;
    p.notes <-
      Printf.sprintf "FAIL: %d FlowCounter entries differ from packets sent"
        !wrong
      :: p.notes
  end;
  let flow_entries = List.length (Stores.entries stores "flows") in
  let nat_entries =
    List.length (Stores.entries inst.Rt.stores.(env.nat_node) "nat_map")
  in
  (flow_entries, nat_entries)

(* Set-ups per run; the median is reported. nat_flows' set-ups are also
   its whole new-flow latency sample (about half a second each), so it
   sets up ten times. *)
let nat_setups = 10
let churn_setups = 3

(* nat_flows' tails are medians over windows (see
   [Measure.windowed_tail]): its batch latencies over windows of 256
   batches, its new-flow set-up latencies over the set-ups, one window
   each. Its slow batches come from collector slices and from other load
   on a shared host, in bursts that can last seconds, so the
   eleventh-slowest batch of a whole run, or of a window of a few
   seconds, jumps between the body of the distribution and those spikes
   from run to run. *)
let nat_window = 256
let nat_setup_batches = (nat_flows + batch - 1) / batch

let nat_flows_run ~seed ~seconds ~traced =
  let flows = gen_nat_flows seed in
  let pl = Click.Config.parse nat_config in
  let env =
    {
      ring = make_ring ();
      pl;
      flows;
      out_egress = egress pl ~node:(node_index pl "out") ~port:0;
      nat_node = node_index pl "nat";
      flow_node = node_index pl "flow";
    }
  in
  let p = fresh_phase () in
  Trace.enabled := traced;
  (* The last set-up's instance carries the traffic. *)
  let inst, setup_s = repeat_setup nat_setups (fun () -> nat_setup env p) in
  let instantiate_s = median (Trace.durations "Runtime.instantiate") in
  let ctl = p.ctl in
  p.ctl <- [];
  (* Reference: a scalar instance given the same set-up packets, so its
     NAT mappings match the instance under test. *)
  let reference = Rt.instantiate ~engine:Rt.Scalar pl in
  let pos = ref 0 in
  while !pos < nat_flows do
    let k = min batch (nat_flows - !pos) in
    ignore (Rt.run_workload reference (nat_batch env.ring flows !pos k));
    pos := !pos + k
  done;
  let counts = Array.make nat_flows 1 in
  let cursor = ref 0 in
  let orng = Random.State.make [| 0x0c; seed |] in
  let run_phase ~tracing secs =
    Trace.enabled := tracing;
    reset_counters ();
    Gc.full_major ();
    let q = fresh_phase () in
    nat_phase env inst reference ~counts ~cursor ~orng ~seconds:secs q;
    Trace.enabled := false;
    q
  in
  let main, extra, layers =
    if not traced then (run_phase ~tracing:false seconds, [], [])
    else begin
      let plain = run_phase ~tracing:false (seconds /. 2.) in
      Trace.reset ();
      let traced_p = run_phase ~tracing:true (seconds /. 2.) in
      ( plain,
        [ traced_p ],
        [ overhead_layer plain traced_p ]
        @ runtime_layers traced_p @ layer_counters () )
    end
  in
  let flow_entries, nat_entries = nat_check_stores env inst counts main in
  let phases = main :: extra in
  let sum f = List.fold_left (fun a q -> a + f q) 0 phases in
  let failed = p.failed + sum (fun q -> q.failed) in
  let attempted = (nat_flows * nat_setups) + sum (fun q -> q.packets) in
  let chrono l = List.rev l in
  let lat_v, _, _, _ = windowed_tail ~window:nat_window (chrono main.lat) in
  let ctl_v, _, _, _ = windowed_tail ~window:nat_setup_batches (chrono ctl) in
  let e2e =
    [
      m "setup_s" "s" setup_s;
      m "rate_per_s" "1/s" (median main.rounds);
      m "lat_p50_us" "us" (us (median main.lat));
      m "lat_tail_us" "us" (us lat_v);
      m "ctl_p50_us" "us" (us (median ctl));
      m "ctl_tail_us" "us" (us ctl_v);
    ]
  in
  let layers =
    if traced then
      layers
      @ [
          m "compile.instantiate_s" "s" instantiate_s;
          m "stores.flow_entries" "count" (float_of_int flow_entries);
          m "stores.nat_entries" "count" (float_of_int nat_entries);
        ]
    else []
  in
  {
    attempted;
    failed;
    correct = failed = 0;
    e2e;
    layers;
    notes =
      List.rev p.notes
      @ List.concat_map (fun q -> List.rev q.notes) phases
      @ [
          windowed_note "batch latency (256 packets)" ~window:nat_window
            (chrono main.lat);
          windowed_note "new-flow set-up (256 first packets)"
            ~window:nat_setup_batches (chrono ctl);
          Printf.sprintf "%d packets in %.2f s of program time; %d flows, %d \
                          FlowCounter / %d NAT entries"
            main.packets main.busy nat_flows flow_entries nat_entries;
        ];
  }

(* {1 route_churn} *)

let nroutes = 100_000
let nports = 4
let churn_every = 20_480
let npool = 65_536

let mask32 len =
  if len = 0 then 0 else 0xffffffff lxor ((1 lsl (32 - len)) - 1)

let rand32 st =
  ((Random.State.bits st land 0xffff) lsl 16)
  lor (Random.State.bits st land 0xffff)

(* The BGP-like prefix-length mix of the E12 experiment: /24 dominates,
   mid lengths taper toward /17, a small tail of /28-/32. *)
let gen_plen st =
  let r = Random.State.int st 1000 in
  if r < 10 then 8 + Random.State.int st 8
  else if r < 60 then 16
  else if r < 65 then 17
  else if r < 75 then 18
  else if r < 95 then 19
  else if r < 130 then 20
  else if r < 170 then 21
  else if r < 270 then 22
  else if r < 370 then 23
  else if r < 950 then 24
  else if r < 960 then 25 + Random.State.int st 3
  else 28 + Random.State.int st 5

let gen_routes st =
  { Lookup.prefix = 0; plen = 0; gw = 0; port = 0 }
  :: List.init nroutes (fun _ ->
         let plen = gen_plen st in
         {
           Lookup.prefix = rand32 st land mask32 plen;
           plen;
           gw = 0;
           port = Random.State.int st nports;
         })

(* Half the destinations fall inside an announced prefix, half are
   uniform over the address space. *)
let gen_destinations st routes =
  let announced = Array.of_list (List.tl routes) in
  Array.init npool (fun i ->
      if i mod 2 = 0 then
        let r = announced.(Random.State.int st (Array.length announced)) in
        r.Lookup.prefix lor (rand32 st land lnot (mask32 r.Lookup.plen))
        land 0xffffffff
      else rand32 st)

let router_front () =
  let mk name cls config = Click.Registry.make ~name ~cls ~config in
  [
    mk "cl" "Classifier" [ "12/0800"; "-" ];
    mk "strip" "Strip" [ "14" ];
    mk "chk" "CheckIPHeader" [];
    mk "opts" "IPGWOptions" [ "9.9.9.1" ];
    mk "ttl" "DecIPTTL" [];
  ]

type churn_env = {
  ring : ring;
  routes : Lookup.route list;
  dsts : int array;
  pool : string array;  (** frames, one per destination *)
}

type live = {
  fib : Fib.t;
  rpl : Pipeline.t;
  rinst : Rt.instance;
  session : V.session;
  port_egress : int array;
  rt_node : int;
}

let verdict_proved (r : V.report) =
  match r.V.verdict with V.Proved -> true | _ -> false

(* Set-up, from cold verification caches: build the FIB, the router
   around it and its compiled instance, verify it crash-free (the
   config goes live only on that verdict), then push one batch so the
   compiled engine's lazy table snapshot is built. *)
let churn_setup env (p : phase) =
  Summaries.clear ();
  Solver.Cache.clear Solver.shared_cache;
  let warm = fill env.ring batch (fun i -> env.pool.(i)) in
  let live, dt =
    time (fun () ->
        let fib =
          Trace.span "El_lookup.Fib.create" (fun () ->
              Fib.create ~nports env.routes)
        in
        let rt =
          Click.Element.make ~name:"rt" ~cls:"RadixIPLookup"
            ~config:[ Printf.sprintf "<%d routes>" (Fib.count fib) ]
            (Lookup.radix_program fib)
        in
        let rpl = Pipeline.linear (router_front () @ [ rt ]) in
        let rinst = instantiate Rt.Compiled rpl in
        let session, report =
          Trace.request (fun () ->
              let s = Trace.span "Verifier.session" (fun () -> V.session rpl) in
              let r, _ =
                Trace.span "Verifier.verify_crash" (fun () -> V.verify_crash s)
              in
              (s, r))
        in
        if not (verdict_proved report) then begin
          p.failed <- p.failed + 1;
          p.notes <- "FAIL: the router did not verify crash-free" :: p.notes
        end;
        ignore (Trace.request (fun () -> run_batch rinst warm));
        let rt_node = Pipeline.length rpl - 1 in
        {
          fib;
          rpl;
          rinst;
          session;
          port_egress =
            Array.init nports (fun port -> egress rpl ~node:rt_node ~port);
          rt_node;
        })
  in
  (live, dt)

(* The final the reference trie predicts for a destination. *)
let expected_final live trie dst =
  match Lpm.lookup trie dst with
  | Some port -> Rt.Egress live.port_egress.(port)
  | None -> Rt.Dropped_at live.rt_node

type churn_state = {
  trie : int Lpm.t;  (** reference: (prefix, length) -> port *)
  present : (int * int, unit) Hashtbl.t;  (** routes in the FIB *)
  mutable inserted : int list;  (** /24s added by the churn, still present *)
  mutable cursor : int;
  mutable since : int;  (** packets since the last change *)
  crng : Random.State.t;  (** change sequence *)
  orng : Random.State.t;  (** oracle sampling *)
  mutable changes : int;
  mutable reused : int;
}

(* One route change: insert a fresh /24, or delete one the churn
   inserted earlier; either rewrites at least one table slot. It counts
   as committed once a live-session re-verification returns Proved, and
   as failed otherwise. *)
let route_change live cs (p : phase) =
  let delete = cs.inserted <> [] && Random.State.bool cs.crng in
  let prefix, port =
    if delete then begin
      let l = cs.inserted in
      let victim = List.nth l (Random.State.int cs.crng (List.length l)) in
      cs.inserted <- List.filter (fun x -> x <> victim) l;
      (victim, -1)
    end
    else begin
      let rec fresh () =
        let x = rand32 cs.crng land mask32 24 in
        if Hashtbl.mem cs.present (x, 24) then fresh () else x
      in
      (fresh (), Random.State.int cs.crng nports)
    end
  in
  let gens0 = Array.map Sdata.generation live.fib.Fib.stores in
  let (ok, reused), dt =
    time (fun () ->
        Trace.request (fun () ->
            if delete then
              ignore
                (Trace.span "El_lookup.Fib.delete" (fun () ->
                     Fib.delete live.fib ~prefix ~plen:24))
            else
              Trace.span "El_lookup.Fib.insert" (fun () ->
                  Fib.insert live.fib
                    { Lookup.prefix; plen = 24; gw = 0; port });
            let r, reused =
              Trace.span "Verifier.verify_crash" (fun () ->
                  V.verify_crash live.session)
            in
            (verdict_proved r, reused)))
  in
  p.ctl <- dt :: p.ctl;
  charge p ~pkts:0 dt;
  cs.changes <- cs.changes + 1;
  if reused then cs.reused <- cs.reused + 1;
  if Array.for_all2 ( = ) gens0 (Array.map Sdata.generation live.fib.Fib.stores)
  then begin
    p.failed <- p.failed + 1;
    p.notes <-
      "FAIL: a route change left every table generation unchanged" :: p.notes
  end;
  if not ok then begin
    p.failed <- p.failed + 1;
    p.notes <-
      "FAIL: re-verification after a route change did not prove the router"
      :: p.notes
  end;
  (* The reference follows the committed table. *)
  if delete then begin
    ignore (Lpm.remove cs.trie ~prefix ~len:24);
    Hashtbl.remove cs.present (prefix, 24)
  end
  else begin
    Lpm.add cs.trie ~prefix ~len:24 port;
    Hashtbl.replace cs.present (prefix, 24) ();
    cs.inserted <- prefix :: cs.inserted
  end

let churn_phase env live reference cs ~seconds (p : phase) =
  let deadline = now () +. seconds in
  let after = ref false in
  while now () < deadline do
    if cs.since >= churn_every then begin
      (* a round runs from one change to the next *)
      close_round p ~complete:(p.ctl <> []);
      route_change live cs p;
      cs.since <- 0;
      after := true
    end;
    let base = cs.cursor in
    let pkts = fill env.ring batch (fun i -> env.pool.((base + i) mod npool)) in
    let sampled = Random.State.int cs.orng 64 = 0 in
    let inputs = if sampled then List.map P.clone pkts else [] in
    let st, dt =
      time (fun () -> Trace.request (fun () -> run_batch live.rinst pkts))
    in
    p.lat <- dt :: p.lat;
    charge p ~pkts:st.Rt.sent dt;
    p.packets <- p.packets + st.Rt.sent;
    p.instrs <- p.instrs + st.Rt.instrs;
    if !after then p.first_after <- dt :: p.first_after
    else p.others_max <- Float.max p.others_max dt;
    (* Forwarding decisions against the reference trie: every batch
       right after a change, and the sampled ones. *)
    if !after || sampled then
      for i = 0 to batch - 1 do
        let dst = env.dsts.((base + i) mod npool) in
        if live.rinst.Rt.finals.(i) <> expected_final live cs.trie dst then
          p.failed <- p.failed + 1
      done;
    if sampled then
      p.failed <- p.failed + lockstep reference inputs live.rinst pkts;
    after := false;
    cs.since <- cs.since + batch;
    cs.cursor <- (base + batch) mod npool
  done

let route_churn_run ~seed ~seconds ~traced =
  let st = Random.State.make [| 0x7274; seed |] in
  let routes = gen_routes st in
  let dsts = gen_destinations st routes in
  let pool =
    Array.map
      (fun dst ->
        P.content @@ Gen.frame_of_flow ~payload:""
          {
            Gen.src_ip = rand32 st;
            dst_ip = dst;
            src_port = 1024 + Random.State.int st 60000;
            dst_port = 1 + Random.State.int st 1023;
            proto = Ipv4.proto_udp;
          })
      dsts
  in
  let env = { ring = make_ring (); routes; dsts; pool } in
  let p = fresh_phase () in
  Trace.enabled := traced;
  (* A process serves one FIB: drop the previous set-up's table from the
     FIB registry, which would otherwise keep it alive. *)
  let release l =
    List.iter (Hashtbl.remove Fib.registry) (Fib.store_ids l.fib)
  in
  let live, setup_s =
    repeat_setup ~release churn_setups (fun () -> churn_setup env p)
  in
  let fib_build_s = median (Trace.durations "El_lookup.Fib.create") in
  let instantiate_s = median (Trace.durations "Runtime.instantiate") in
  let reference = Rt.instantiate ~engine:Rt.Scalar live.rpl in
  let trie = Lpm.create () in
  let present = Hashtbl.create (2 * nroutes) in
  List.iter
    (fun (r : Lookup.route) ->
      Lpm.add trie ~prefix:r.Lookup.prefix ~len:r.Lookup.plen r.Lookup.port;
      Hashtbl.replace present (r.Lookup.prefix, r.Lookup.plen) ())
    routes;
  let cs =
    {
      trie;
      present;
      inserted = [];
      cursor = batch;
      since = batch;
      crng = Random.State.make [| 0x6368; seed |];
      orng = Random.State.make [| 0x0c; seed |];
      changes = 0;
      reused = 0;
    }
  in
  let run_phase ~tracing secs =
    Trace.enabled := tracing;
    reset_counters ();
    Gc.full_major ();
    cs.changes <- 0;
    cs.reused <- 0;
    let q = fresh_phase () in
    churn_phase env live reference cs ~seconds:secs q;
    Trace.enabled := false;
    q
  in
  let main, extra, layers =
    if not traced then (run_phase ~tracing:false seconds, [], [])
    else begin
      let plain = run_phase ~tracing:false (seconds /. 2.) in
      Trace.reset ();
      let tp = run_phase ~tracing:true (seconds /. 2.) in
      let updates =
        Trace.durations "El_lookup.Fib.insert"
        @ Trace.durations "El_lookup.Fib.delete"
      in
      let reverify = Trace.durations "Verifier.verify_crash" in
      let med_or_zero l = if l = [] then 0. else median l in
      (* Where the batch tail sits: the batch right after each change
         against every other batch and the change itself. *)
      tp.notes <-
        Printf.sprintf
          "traced: the first batch after each of %d route changes takes \
           %.0f us (median, shortest %.0f us); no other batch exceeds %.0f \
           us; the change itself: route update %.1f us, re-verification \
           %.1f us (medians)"
          (List.length tp.first_after)
          (us (med_or_zero tp.first_after))
          (us (List.fold_left Float.min infinity tp.first_after))
          (us tp.others_max) (us (med_or_zero updates))
          (us (med_or_zero reverify))
        :: tp.notes;
      ( plain,
        [ tp ],
        [ overhead_layer plain tp ]
        @ runtime_layers tp @ layer_counters ()
        @ [
            m "compile.instantiate_s" "s" instantiate_s;
            m "fib.build_s" "s" fib_build_s;
            m "fib.update_us" "us" (us (med_or_zero updates));
            m "verifier.reverify_us" "us" (us (med_or_zero reverify));
            m "verifier.reused_frac" "frac"
              (if cs.changes = 0 then 0.
               else float_of_int cs.reused /. float_of_int cs.changes);
          ] )
    end
  in
  let phases = main :: extra in
  let sum f = List.fold_left (fun a q -> a + f q) 0 phases in
  let failed = p.failed + sum (fun q -> q.failed) in
  let attempted =
    (churn_setups * (1 + batch))
    + sum (fun q -> q.packets + List.length q.ctl)
  in
  let lat_v, _, _ = tail main.lat and ctl_v, _, _ = tail main.ctl in
  let e2e =
    [
      m "setup_s" "s" setup_s;
      m "rate_per_s" "1/s" (median main.rounds);
      m "lat_p50_us" "us" (us (median main.lat));
      m "lat_tail_us" "us" (us lat_v);
      m "ctl_p50_us" "us" (us (median main.ctl));
      m "ctl_tail_us" "us" (us ctl_v);
    ]
  in
  {
    attempted;
    failed;
    correct = failed = 0;
    e2e;
    layers;
    notes =
      List.rev p.notes @ List.concat_map (fun q -> List.rev q.notes) phases
      @ [
          tail_note "batch latency (256 packets)" main.lat;
          tail_note "route change to verified commit" main.ctl;
          tail_note "first batch after a change" main.first_after;
          Printf.sprintf "%d packets, %d route changes in %.2f s of program \
                          time; FIB %d routes"
            main.packets (List.length main.ctl) main.busy (Fib.count live.fib);
        ];
  }
