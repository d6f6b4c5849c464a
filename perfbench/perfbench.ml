(* The repository benchmark.

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload for S seconds of measurement and prints, as the
   last line of standard output, one JSON object with the keys
   correct, attempted, failed and metrics. With --trace 0 the metrics
   are the end-to-end ones, measured untraced; with --trace 1 they are
   the per-layer ones, taken from a traced phase, and the spans are
   written to perfbench/out/. Lines before the JSON describe the run.
   METRICS.md defines every metric and the layer -> end-to-end
   predictions. *)

open Measure

let workloads =
  [
    ("nat_flows", Dataplane.nat_flows_run);
    ("route_churn", Dataplane.route_churn_run);
    ("verify_suite", Verification.verify_suite_run);
    ("fabric_props", Verification.fabric_props_run);
  ]

(* Every end-to-end metric, reported by every workload. *)
let end_to_end =
  [
    "setup_s"; "rate_per_s"; "lat_p50_us"; "lat_tail_us"; "ctl_p50_us";
    "ctl_tail_us"; "ok_frac"; "peak_rss_mb";
  ]

(* Every per-layer metric with its unit. A workload that does not reach
   a layer reports that layer's work as 0. *)
let per_layer =
  [
    ("trace.overhead_frac", "frac");
    ("runtime.busy_s", "s");
    ("runtime.instrs_per_pkt", "count");
    ("runtime.stall_batches", "count");
    ("runtime.first_batch_after_update_us", "us");
    ("compile.instantiate_s", "s");
    ("stores.flow_entries", "count");
    ("stores.nat_entries", "count");
    ("fib.build_s", "s");
    ("fib.update_us", "us");
    ("staleness.mutations", "count");
    ("staleness.summaries_dropped", "count");
    ("staleness.queries_dropped", "count");
    ("verifier.reverify_us", "us");
    ("verifier.reused_frac", "frac");
    ("symbex.step1_s", "s");
    ("symbex.segments", "count");
    ("symbex.suspects", "count");
    ("verifier.crash_s", "s");
    ("verifier.bound_s", "s");
    ("verifier.composite_paths", "count");
    ("verifier.checks", "count");
    ("witness.confirmed_frac", "frac");
    ("smt.queries", "count");
    ("smt.cache_hit_frac", "frac");
    ("smt.interval_refuted_frac", "frac");
    ("smt.preprocess_s", "s");
    ("smt.blast_s", "s");
    ("smt.sat_s", "s");
    ("smt.sat_clauses", "count");
    ("cert.certified_frac", "frac");
    ("cert.solve_s", "s");
    ("cert.check_s", "s");
    ("topo.build_s", "s");
    ("topo.reach_s", "s");
    ("topo.isolate_s", "s");
    ("topo.temporal_s", "s");
    ("topo.crash_s", "s");
    ("topo.paths", "count");
    ("topo.checks", "count");
  ]

let usage () =
  prerr_endline
    "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n\
     workloads: nat_flows route_churn verify_suite fabric_props";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref 1 and seconds = ref 10. in
  let trace = ref false in
  let rec go = function
    | "--workload" :: w :: rest ->
      workload := Some w;
      go rest
    | "--seed" :: n :: rest ->
      seed := int_of_string n;
      go rest
    | "--seconds" :: s :: rest ->
      seconds := float_of_string s;
      go rest
    | "--trace" :: t :: rest ->
      trace := t = "1";
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  match !workload with
  | Some w when List.mem_assoc w workloads -> (w, !seed, !seconds, !trace)
  | _ -> usage ()

let () =
  let name, seed, seconds, traced = parse_args () in
  let run = List.assoc name workloads in
  let r = run ~seed ~seconds ~traced in
  List.iter print_endline r.notes;
  let metrics =
    if not traced then
      let ok =
        1. -. (float_of_int r.failed /. float_of_int (max 1 r.attempted))
      in
      let all =
        r.e2e @ [ m "ok_frac" "frac" ok; m "peak_rss_mb" "MB" (peak_rss_mb ()) ]
      in
      List.map (fun n -> List.find (fun x -> x.name = n) all) end_to_end
    else begin
      (try Sys.mkdir "perfbench/out" 0o755 with Sys_error _ -> ());
      Trace.write
        (Printf.sprintf "perfbench/out/%s-seed%d.spans.jsonl" name seed);
      List.map
        (fun (n, u) ->
          match List.find_opt (fun x -> x.name = n) r.layers with
          | Some x -> x
          | None -> m n u 0.)
        per_layer
    end
  in
  print_endline (result_json r metrics)
