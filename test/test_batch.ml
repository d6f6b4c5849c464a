(* The batched runtime and the compiled fast path: all three engines
   must be observationally identical — same finals, same per-element
   steps, same instruction counts, same packet bytes, same key/value
   state — on the same workloads. Plus the robustness fixes that ride
   along: RadixIPLookup across the full /0–/32 prefix range (checked
   against the Lpm trie reference), hop-budget exhaustion as a counted
   final instead of an exception, and the interpreter's assign-width
   check. *)

module B = Vdp_bitvec.Bitvec
module Ir = Vdp_ir.Types
module Interp = Vdp_ir.Interp
module Stores = Vdp_ir.Stores
module Lpm = Vdp_tables.Lpm
module P = Vdp_packet.Packet
module Gen = Vdp_packet.Gen
module Click = Vdp_click
module R = Click.Runtime
module El = Click.El_lookup

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let find name =
  List.find Sys.file_exists [ "../examples/" ^ name; "examples/" ^ name ]

let engines = [ R.Scalar; R.Batched; R.Compiled ]

let final_str f = Format.asprintf "%a" R.pp_final f

(* {1 RadixIPLookup vs the Lpm trie, /0 through /32} *)

(* A bare IPv4 header window: the lookup elements read dst at offset
   16 relative to head, i.e. they run post-Strip. *)
let ip_pkt dst =
  let b = Bytes.make 20 '\000' in
  Bytes.set b 16 (Char.chr ((dst lsr 24) land 0xff));
  Bytes.set b 17 (Char.chr ((dst lsr 16) land 0xff));
  Bytes.set b 18 (Char.chr ((dst lsr 8) land 0xff));
  Bytes.set b 19 (Char.chr (dst land 0xff));
  P.create (Bytes.to_string b)

let rand32 st =
  (Random.State.bits st lsl 16) lxor Random.State.bits st land 0xffffffff

(* Random route table with every prefix length reachable, prefixes
   masked to their length, unique (prefix, len) pairs so the reference
   and the element agree on tie-breaking. *)
let random_routes st n =
  let seen = Hashtbl.create 64 in
  let out = ref [] in
  while Hashtbl.length seen < n do
    let plen = Random.State.int st 33 in
    let prefix = rand32 st land El.mask_of_len plen in
    if not (Hashtbl.mem seen (prefix, plen)) then begin
      Hashtbl.replace seen (prefix, plen) ();
      let gw = if Random.State.bool st then rand32 st else 0 in
      let port = Random.State.int st 8 in
      out := { El.prefix; plen; gw; port } :: !out
    end
  done;
  !out

let check_lookup_agrees ~msg trie inst addr =
  let expect = Lpm.lookup trie addr in
  let pkt = ip_pkt addr in
  let r = R.push inst pkt in
  match (expect, r.R.final) with
  | Some route, R.Egress p ->
    check_int (msg ^ ": port") route.El.port p;
    check_int (msg ^ ": gateway in W0") route.El.gw pkt.P.w0
  | None, R.Dropped_at 0 -> ()
  | _ ->
    Alcotest.failf "%s: addr %#x: trie says %s, element says %s" msg addr
      (match expect with
      | Some r -> Printf.sprintf "port %d" r.El.port
      | None -> "no route")
      (final_str r.R.final)

let radix_differential engine () =
  let st = Random.State.make [| 0xd1f; R.max_hops |] in
  for table = 0 to 14 do
    let routes = random_routes st (5 + Random.State.int st 25) in
    let trie =
      Lpm.of_list (List.map (fun r -> (r.El.prefix, r.El.plen, r)) routes)
    in
    let pl =
      Click.Pipeline.linear
        [
          Click.Element.make ~name:"rt" ~cls:"RadixIPLookup" ~config:[]
            (El.radix_ip_lookup routes);
        ]
    in
    let inst = R.instantiate ~engine pl in
    let msg = Printf.sprintf "table %d" table in
    List.iter
      (fun r ->
        (* The prefix itself, its last covered address, and the first
           address past the range — the off-by-one spots. *)
        check_lookup_agrees ~msg trie inst r.El.prefix;
        check_lookup_agrees ~msg trie inst
          (r.El.prefix lor (lnot (El.mask_of_len r.El.plen) land 0xffffffff));
        check_lookup_agrees ~msg trie inst
          ((r.El.prefix + (1 lsl (32 - min 31 r.El.plen))) land 0xffffffff))
      routes;
    for _ = 1 to 50 do
      check_lookup_agrees ~msg trie inst (rand32 st)
    done
  done

let radix_fixed () =
  (* The prefix lengths the pre-fix element rejected (/17–/31) plus
     the /0 default route, with deliberate spill overlaps. *)
  let routes =
    List.map El.parse_route
      [
        "0.0.0.0/0 9.9.9.9 0";
        "10.0.0.0/8 1";
        "10.128.0.0/17 2";
        "10.128.64.0/18 3";
        "10.128.0.0/24 4";
        "10.128.0.128/25 5";
        "10.128.0.129/32 6";
        "203.0.113.0/31 7";
      ]
  in
  let trie =
    Lpm.of_list (List.map (fun r -> (r.El.prefix, r.El.plen, r)) routes)
  in
  List.iter
    (fun engine ->
      let pl =
        Click.Pipeline.linear
          [
            Click.Element.make ~name:"rt" ~cls:"RadixIPLookup" ~config:[]
              (El.radix_ip_lookup routes);
          ]
      in
      let inst = R.instantiate ~engine pl in
      let msg = "fixed/" ^ R.engine_name engine in
      let ip = Vdp_packet.Ipv4.addr_of_string in
      List.iter
        (check_lookup_agrees ~msg trie inst)
        [
          ip "8.8.8.8"; (* default *)
          ip "10.1.2.3"; (* /8 *)
          ip "10.128.1.1"; (* /17 *)
          ip "10.128.65.0"; (* /18 *)
          ip "10.128.0.77"; (* /24 *)
          ip "10.128.0.200"; (* /25 *)
          ip "10.128.0.129"; (* /32 *)
          ip "10.128.0.128"; (* /25, one below the host route *)
          ip "203.0.113.1"; (* /31 *)
          ip "203.0.113.2"; (* default again *)
        ])
    engines

(* {1 Live engines across FIB churn}

   One instance per engine, built once over a mutable FIB: every route
   change must be visible at the next push, with no re-instantiation.
   The scripted prefix of the churn walks the DIR-16-8-8 edge cases — a
   /16 slot's spill bit set and cleared, deeper routes shadowing and
   then falling back to a covering route of their own level, a route
   rewritten in place — before random inserts and deletes. *)

let live_churn () =
  let ip = Vdp_packet.Ipv4.addr_of_string in
  let fib = El.Fib.create ~nports:8 [] in
  let prog = El.radix_program fib in
  check_bool "radix program runs on the native tier" true
    (Vdp_ir.Compile.tier prog = Vdp_ir.Compile.Native);
  let pl =
    Click.Pipeline.linear
      [ Click.Element.make ~name:"rt" ~cls:"RadixIPLookup" ~config:[] prog ]
  in
  let insts = List.map (fun engine -> (engine, R.instantiate ~engine pl)) engines in
  let model : (int * int, El.route) Hashtbl.t = Hashtbl.create 64 in
  let st = Random.State.make [| 0xc4a2 |] in
  let probes =
    List.map ip
      [ "8.8.8.8"; "10.1.2.3"; "10.16.0.1"; "10.16.4.9"; "10.16.5.1";
        "10.16.5.130"; "10.16.5.255"; "10.16.6.1"; "10.17.0.0" ]
  in
  let check step =
    let trie = Lpm.create () in
    Hashtbl.iter (fun (p, l) r -> Lpm.add trie ~prefix:p ~len:l r) model;
    let addrs =
      Hashtbl.fold
        (fun (p, l) _ acc ->
          p
          :: (p lor (lnot (El.mask_of_len l) land 0xffffffff))
          :: ((p + (1 lsl (32 - min 31 l))) land 0xffffffff)
          :: acc)
        model
        (probes @ List.init 20 (fun _ -> rand32 st))
    in
    List.iter
      (fun (engine, inst) ->
        let msg = Printf.sprintf "step %s (%s)" step (R.engine_name engine) in
        List.iter (check_lookup_agrees ~msg trie inst) addrs)
      insts
  in
  let insert spec =
    let r = El.parse_route spec in
    El.Fib.insert fib r;
    Hashtbl.replace model (r.El.prefix, r.El.plen) r;
    check ("insert " ^ spec)
  in
  let delete spec =
    let r = El.parse_route (spec ^ " 0") in
    check_bool ("delete " ^ spec) true
      (El.Fib.delete fib ~prefix:r.El.prefix ~plen:r.El.plen);
    Hashtbl.remove model (r.El.prefix, r.El.plen);
    check ("delete " ^ spec)
  in
  check "empty";
  insert "0.0.0.0/0 9.9.9.9 3";
  insert "10.0.0.0/8 1";
  insert "10.16.0.0/12 2";
  insert "10.16.5.0/24 4"; (* spills the 10.16/16 slot *)
  insert "10.16.5.128/25 5"; (* spills the 10.16.5/24 slot *)
  insert "10.16.4.0/22 6"; (* under the /24, same level *)
  delete "10.16.5.0/24"; (* falls back to the /22 *)
  delete "10.16.5.128/25"; (* clears the /24 spill *)
  delete "10.16.4.0/22"; (* clears the /16 spill: back to the /12 *)
  delete "10.16.0.0/12"; (* falls back to the /8 *)
  insert "10.0.0.0/8 1.2.3.4 7"; (* rewritten in place *)
  delete "0.0.0.0/0";
  for i = 1 to 40 do
    if Random.State.int st 3 = 0 && Hashtbl.length model > 0 then begin
      let keys = Hashtbl.fold (fun k _ acc -> k :: acc) model [] in
      let p, l = List.nth keys (Random.State.int st (List.length keys)) in
      check_bool "delete of present route" true
        (El.Fib.delete fib ~prefix:p ~plen:l);
      Hashtbl.remove model (p, l);
      check (Printf.sprintf "random %d: delete" i)
    end
    else begin
      let r = List.hd (random_routes st 1) in
      El.Fib.insert fib r;
      Hashtbl.replace model (r.El.prefix, r.El.plen) r;
      check (Printf.sprintf "random %d: insert" i)
    end
  done

(* {1 Scalar vs batched vs compiled: exact observational equality} *)

let window p = Bytes.sub_string p.P.buf p.P.head p.P.len

let meta p = (p.P.port, p.P.color, p.P.w0, p.P.w1)

(* Every store of every node, as sorted printable entries. *)
let store_snapshot inst =
  let pl = inst.R.pipeline in
  List.init (Click.Pipeline.length pl) (fun ni ->
      let prog =
        (Click.Pipeline.node pl ni).Click.Pipeline.element
          .Click.Element.program
      in
      List.map
        (fun (d : Ir.store_decl) ->
          let es =
            Stores.entries inst.R.stores.(ni) d.Ir.store_name
            |> List.map (fun (k, v) ->
                   (B.to_string_hex k, B.to_string_hex v))
            |> List.sort compare
          in
          (d.Ir.store_name, es))
        prog.Ir.stores)

let check_same_runs name (runs_a, snap_a) (runs_b, snap_b) =
  List.iteri
    (fun i ((ra : R.run), (pa : P.t), ((rb : R.run), (pb : P.t))) ->
      let fail fmt = Alcotest.failf ("%s: packet %d: " ^^ fmt) name i in
      if ra.R.final <> rb.R.final then
        fail "finals differ: %s vs %s" (final_str ra.R.final)
          (final_str rb.R.final);
      if ra.R.total_instrs <> rb.R.total_instrs then
        fail "instruction counts differ: %d vs %d" ra.R.total_instrs
          rb.R.total_instrs;
      if ra.R.steps <> rb.R.steps then fail "step traces differ";
      if window pa <> window pb then fail "packet bytes differ";
      if meta pa <> meta pb then fail "packet metadata differs")
    (List.map2 (fun (ra, pa) rb -> (ra, pa, rb)) runs_a runs_b);
  if snap_a <> snap_b then
    Alcotest.failf "%s: final store state differs" name

let run_engine pl engine pkts =
  let inst = R.instantiate ~engine pl in
  let runs =
    List.map
      (fun p ->
        let q = P.clone p in
        (R.push inst q, q))
      pkts
  in
  (runs, store_snapshot inst)

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

let engine_differential name pl () =
  let pkts = Gen.workload ~seed:3 ~nflows:8 ~corrupt_ratio:0.2 300 in
  let scalar = run_engine pl R.Scalar pkts in
  List.iter
    (fun engine ->
      check_same_runs
        (Printf.sprintf "%s scalar-vs-%s" name (R.engine_name engine))
        scalar
        (run_engine pl engine pkts))
    [ R.Batched; R.Compiled ];
  (* The aggregate driver must agree with itself across engines too. *)
  let stats engine =
    let st =
      R.run_workload
        (R.instantiate ~engine pl)
        (List.map P.clone pkts)
    in
    R.(st.sent, st.egressed, st.dropped, st.crashed, st.hop_budget,
       st.instrs, st.max_instrs)
  in
  let s = stats R.Scalar in
  List.iter
    (fun engine ->
      check_bool
        (Printf.sprintf "%s aggregate stats %s" name (R.engine_name engine))
        true
        (stats engine = s))
    [ R.Batched; R.Compiled ]

(* {1 Hop budget as a counted final} *)

let pass name = Click.Registry.make ~name ~cls:"Strip" ~config:[ "0" ]

let cyclic () =
  Click.Pipeline.create
    [ pass "a"; pass "b" ]
    [ (0, 0, 1, 0); (1, 0, 0, 0) ]

let hop_budget_scalar () =
  let inst = R.instantiate (cyclic ()) in
  let r = R.push inst (P.create "x") in
  (match r.R.final with
  | R.Hop_budget_at _ -> ()
  | f -> Alcotest.failf "expected hop-budget final, got %s" (final_str f));
  (* Counted in aggregate stats, not raised. *)
  let st =
    R.run_workload
      (R.instantiate (cyclic ()))
      (List.init 5 (fun _ -> P.create "x"))
  in
  check_int "sent" 5 st.R.sent;
  check_int "hop_budget" 5 st.R.hop_budget;
  check_int "crashed" 0 st.R.crashed

let hop_budget_batched_rejects_cycles () =
  List.iter
    (fun engine ->
      Alcotest.check_raises
        (R.engine_name engine ^ " rejects cycles")
        (Invalid_argument "Pipeline: cycle detected")
        (fun () -> ignore (R.instantiate ~engine (cyclic ()))))
    [ R.Batched; R.Compiled ]

let hop_budget_long_chain () =
  (* An acyclic chain longer than the budget: every engine must stop
     at the same node with the same final. *)
  let n = R.max_hops + 40 in
  let pl =
    Click.Pipeline.linear
      (List.init n (fun i -> pass (Printf.sprintf "s%d" i)))
  in
  let finals =
    List.map
      (fun engine ->
        let inst = R.instantiate ~engine pl in
        (R.push inst (P.create "x")).R.final)
      engines
  in
  List.iter
    (fun f ->
      match f with
      | R.Hop_budget_at ni -> check_int "budget node" (R.max_hops + 1) ni
      | f -> Alcotest.failf "expected hop-budget final, got %s" (final_str f))
    finals

(* {1 Interpreter assign-width check} *)

let interp_width_check () =
  let bad =
    {
      Ir.name = "bad";
      reg_widths = [| 8 |];
      blocks =
        [|
          {
            Ir.instrs =
              [ Ir.Assign (0, Ir.Move (Ir.Const (B.of_int ~width:16 5))) ];
            term = Ir.Drop;
          };
        |];
      stores = [];
      nports = 1;
    }
  in
  Alcotest.check_raises "width mismatch detected"
    (Invalid_argument "Interp: bad: assign produces width 16, r0 has width 8")
    (fun () -> ignore (Interp.run bad (Stores.init []) (P.create "x")))

let tests =
  [
    Alcotest.test_case "radix vs trie, random /0-/32 (scalar)" `Quick
      (radix_differential R.Scalar);
    Alcotest.test_case "radix vs trie, random /0-/32 (compiled)" `Quick
      (radix_differential R.Compiled);
    Alcotest.test_case "radix fixed cases, all engines" `Quick radix_fixed;
    Alcotest.test_case "live engines follow FIB churn, all engines" `Quick
      live_churn;
    Alcotest.test_case "engines agree on router.click" `Quick (fun () ->
        engine_differential "router"
          (Click.Config.parse_file (find "router.click"))
          ());
    Alcotest.test_case "engines agree on firewall.click" `Quick (fun () ->
        engine_differential "firewall"
          (Click.Config.parse_file (find "firewall.click"))
          ());
    Alcotest.test_case "engines agree on NetFlow+NAT state" `Quick (fun () ->
        engine_differential "nat" (Click.Config.parse nat_config) ());
    Alcotest.test_case "hop budget is a final, not an exception" `Quick
      hop_budget_scalar;
    Alcotest.test_case "batched engines reject cyclic pipelines" `Quick
      hop_budget_batched_rejects_cycles;
    Alcotest.test_case "hop budget agrees across engines" `Quick
      hop_budget_long_chain;
    Alcotest.test_case "interpreter rejects width-mismatched assigns" `Quick
      interp_width_check;
  ]
