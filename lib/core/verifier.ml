(** The dataplane verifier: Step-1 summaries + Step-2 composition.

    Three target properties from the paper:
    - {b crash freedom} — no input packet can crash the pipeline;
    - {b bounded execution} — a provable upper bound on instructions
      executed per packet, with the packet that attains it;
    - {b reachability} — e.g. "well-formed packets to X are never
      dropped", checked for a specific configuration.

    Crash-freedom exploration only descends into subtrees that can
    still reach a suspect segment — the pruning that, combined with
    per-element summary caching, gives the paper's exponential-to-
    linear collapse.

    Step-2 feasibility checks run, by default, against one {e
    incremental} solver context carried down the composition DFS: each
    descent pushes a scope and asserts only the new segment's
    constraints, each return pops it, and the solver keeps its blasted
    term DAG and learned clauses throughout. A shared query cache
    additionally memoizes identical composite conditions (common across
    properties on the same pipeline). [config.incremental = false]
    restores flat per-check solving; [config.cache = false] disables
    memoization — both escape hatches exist so the two modes can be
    differentially tested and benchmarked against each other.

    With [config.jobs > 1] both steps run on a {!Pool} of that many
    domains. Step 1 fans the distinct element symbex jobs out (they
    share nothing but the domain-safe term table). Step 2 runs as a
    fine-grained task graph on the pool's helping scheduler: every
    composite tree node and every terminal feasibility check is its
    own dynamically-spawned task, each pool domain keeps one
    persistent incremental solver context that it re-seeds per task,
    and every parent merges its children's results in spawn (= DFS)
    order — so verdicts, violation lists and bound witnesses are
    ordered exactly as the sequential DFS produces them. See
    {!section-worksteal} below. *)

module B = Vdp_bitvec.Bitvec
module T = Vdp_smt.Term
module Solver = Vdp_smt.Solver
module Engine = Vdp_symbex.Engine
module S = Vdp_symbex.Sstate
module Ir = Vdp_ir.Types
module Click = struct
  module Pipeline = Vdp_click.Pipeline
  module Element = Vdp_click.Element
  module Runtime = Vdp_click.Runtime
end

type config = {
  engine : Engine.config;
  solver_budget : int;  (** conflict budget per composite check *)
  assume : T.t list;    (** extra assumptions on the input packet *)
  validate_witnesses : bool;
  replay : bool;
      (** replay each witness through {!Witness.replay}: derive the
          initial private state the violating path depends on, load it,
          and require the concrete runtime to reproduce the claimed
          outcome before tagging the violation confirmed. Off, the
          legacy stateless spot-check of [validate_witnesses] is all
          that runs. *)
  max_composite_paths : int;
  incremental : bool;
      (** carry one push/pop solver context down the Step-2 DFS *)
  cache : bool;  (** memoize Step-2 queries in [Solver.shared_cache] *)
  preprocess : bool;
      (** word-level solver preprocessing (equality substitution,
          constant propagation, slicing) before bit-blasting each
          Step-2 query *)
  jobs : int;
      (** domains used for Step-1 symbex and Step-2 suspect checking;
          1 (the default) keeps everything on the calling domain.
          Parallel runs enforce [max_composite_paths] through one
          atomic counter shared by all tasks, so the budget is global
          (tasks already in flight when it trips still finish). *)
  certify : bool;
      (** produce and independently check a proof certificate for every
          refuted suspect-path query ({!Vdp_cert.Certificate}); the
          per-run summary lands in the report's [cert] field. A verdict
          of [Proved] (or an exact bound) is only as trustworthy as its
          refutations, so this is the knob that upgrades "the solver
          said so" to "the solver said so and a separate checker agreed
          on every answer". *)
}

let default_config =
  {
    engine = Engine.default_config;
    solver_budget = 2_000_000;
    assume = [];
    validate_witnesses = true;
    replay = true;
    max_composite_paths = 2_000_000;
    incremental = true;
    cache = true;
    preprocess = true;
    jobs = 1;
    certify = false;
  }

type violation = {
  node : int;
  element : string;
  outcome : Engine.outcome;
  cond : T.t list;
  witness : Vdp_packet.Packet.t option;
  confirmed : bool;
      (** the witness reproduced the outcome on the concrete runtime *)
  stateful : bool;  (** depends on values read from private state *)
  replayed : Witness.t option;
      (** full replay record (run, loaded state, divergence point) when
          [config.replay] was on *)
}

type verdict =
  | Proved
  | Violated of violation list
  | Unknown of string

type stats = {
  mutable elements : int;
  mutable unique_summaries : int;
  mutable segments_total : int;
  mutable suspects : int;
  mutable composite_paths : int;
  mutable suspect_checks : int;
  mutable refuted : int;
  mutable unknown_checks : int;
  mutable replays : int;
  mutable replays_confirmed : int;
  mutable step1_time : float;
  mutable step2_time : float;
}

let fresh_stats () =
  {
    elements = 0;
    unique_summaries = 0;
    segments_total = 0;
    suspects = 0;
    composite_paths = 0;
    suspect_checks = 0;
    refuted = 0;
    unknown_checks = 0;
    replays = 0;
    replays_confirmed = 0;
    step1_time = 0.;
    step2_time = 0.;
  }

type report = {
  verdict : verdict;
  stats : stats;
  cert : Vdp_cert.Certificate.summary option;
      (** certification summary when [config.certify] was on *)
}

(* {1 Shared plumbing} *)

(* Wall clock, not CPU time: the bench harness compares against
   [Unix.gettimeofday]-based timings, and CPU time under-reports once
   solving is incremental or parallel. *)
let now () = Unix.gettimeofday ()

(* The Step-2 solving strategy. In incremental mode the context is
   maintained so that, on entry to [visit node st], it holds exactly
   the constraints of [st.cond]; flat mode re-solves [st.cond] from
   scratch at every suspect. *)
type step2 =
  | Flat of Solver.Cache.t option * bool  (* (cache, preprocess) *)
  | Incremental of Solver.ctx

let make_step2 cfg =
  let cache = if cfg.cache then Some Solver.shared_cache else None in
  if cfg.incremental then
    Incremental
      (Solver.create_ctx ?cache ~preprocess:cfg.preprocess
         ~track_core:cfg.certify ())
  else Flat (cache, cfg.preprocess)

(* Enter the composite state [st]: in incremental mode, open a scope
   holding exactly the constraints [apply] just added. *)
let enter step2 (st : Compose.t) =
  match step2 with
  | Flat _ -> ()
  | Incremental c ->
    Solver.push c;
    Solver.assert_terms c st.Compose.new_cond

let leave = function
  | Flat _ -> ()
  | Incremental c -> Solver.pop c

(* Check feasibility of [st.cond @ extra]. Incremental-mode invariant:
   the context currently holds [st.cond]. *)
let check_state step2 ~max_conflicts (st : Compose.t) extra =
  let deps = st.Compose.static_deps in
  match step2 with
  | Flat (cache, preprocess) ->
    Solver.check ?cache ~deps ~preprocess ~max_conflicts
      (extra @ st.Compose.cond)
  | Incremental c ->
    if extra = [] then Solver.check_ctx ~deps ~max_conflicts c
    else begin
      Solver.push c;
      Solver.assert_terms c extra;
      let r = Solver.check_ctx ~deps ~max_conflicts c in
      Solver.pop c;
      r
    end

(* Decide feasibility with a single unbounded query; only a satisfiable
   answer pays extra for witness shrinking (retry under increasingly
   loose length bounds and keep the first satisfiable one — purely
   cosmetic, soundness only needs the unbounded answer). Checks on a
   crash-free pipeline are overwhelmingly unsat, so the common case
   costs exactly one query instead of one per bound. *)
let check_small step2 ~max_conflicts (st : Compose.t) =
  match check_state step2 ~max_conflicts st [] with
  | (Solver.Unsat | Solver.Unknown) as r -> r
  | Solver.Sat m ->
    let rec shrink = function
      | [] -> Solver.Sat m
      | b :: rest -> (
        let bound = T.ule (T.var S.len_var 16) (T.bv_int ~width:16 b) in
        match check_state step2 ~max_conflicts st [ bound ] with
        | Solver.Sat m' -> Solver.Sat m'
        | Solver.Unsat | Solver.Unknown -> shrink rest)
    in
    shrink [ 16; 64; 128 ]

(* Certification plumbing: one thread-safe collector per run when
   [config.certify]; every [Unsat] suspect-path answer sends its refuted
   conjunction through it. Only the outer, unbounded query ([st.cond])
   is certified — the witness-shrinking retries in [check_small] run
   only after a [Sat], and a [Sat] is vouched for by witness replay,
   not by a proof. *)
let make_cert cfg =
  if cfg.certify then
    Some
      (Vdp_cert.Certificate.create_collector ~preprocess:cfg.preprocess
         ~max_conflicts:cfg.solver_budget ())
  else None

(* Hand the certificate producer what the answering solver already
   knows: the preprocessing result (so the proof cache is keyed exactly
   like the query cache) and the unsat core over the residual conjuncts
   (so only the core is re-blasted). Flat mode solves one-shot and
   exposes neither. Must be read before the context runs another
   check — callers capture the pair synchronously. *)
let cert_pre_core = function
  | Incremental c -> (Solver.last_pre c, Solver.last_core c)
  | Flat _ -> (None, None)

let certify_now cert step2 (st : Compose.t) =
  match cert with
  | None -> ()
  | Some col ->
    let pre, core = cert_pre_core step2 in
    ignore
      (Vdp_cert.Certificate.certify_refutation ?pre ?core col st.Compose.cond
        : (Vdp_cert.Certificate.t, string) result)

let cert_summary cert = Option.map Vdp_cert.Certificate.summary cert

let base_assumptions cfg =
  T.ule (T.var S.len_var 16)
    (T.bv_int ~width:16 cfg.engine.Engine.max_len)
  :: cfg.assume

(* The composite state at the pipeline entry, carrying the configured
   headroom as the remaining push budget. *)
let initial_state cfg =
  Compose.initial ~assume:(base_assumptions cfg)
    ~headroom:cfg.engine.Engine.headroom ()

let step1 ?pool cfg (pl : Click.Pipeline.t) stats =
  (* From here on, static-store mutations must invalidate the caches
     the run is about to populate. *)
  Staleness.install ();
  let t0 = now () in
  let before = Summaries.size () in
  let summaries = Summaries.of_pipeline ?pool ~config:cfg.engine pl in
  stats.step1_time <- now () -. t0;
  stats.elements <- Array.length summaries;
  stats.unique_summaries <- Summaries.size () - before;
  stats.segments_total <-
    Array.fold_left
      (fun acc (e : Summaries.entry) ->
        acc + List.length e.Summaries.result.Engine.segments)
      0 summaries;
  summaries

let any_incomplete summaries =
  Array.exists
    (fun (e : Summaries.entry) -> e.Summaries.result.Engine.incomplete > 0)
    summaries

(* Does the runtime reproduce the predicted outcome for this witness? *)
let validate_crash pl pkt node =
  let inst = Click.Runtime.instantiate pl in
  match (Click.Runtime.push inst (Vdp_packet.Packet.clone pkt)).Click.Runtime.final with
  | Click.Runtime.Crashed_at (n, _) -> n = node
  | _ -> false

(* Replay one Sat model: with [config.replay], through the full
   witness-replay machinery (initial private state derived from the
   model and loaded); otherwise the legacy stateless spot-check.
   Returns (replay record, witness packet, confirmed). *)
let replay_model cfg pl (stats : stats) ~model ~st ~expect =
  let max_len = cfg.engine.Engine.max_len in
  if cfg.replay && cfg.validate_witnesses then begin
    let r = Witness.replay pl ~max_len ~model ~st ~expect in
    stats.replays <- stats.replays + 1;
    let ok = Witness.confirmed r in
    if ok then stats.replays_confirmed <- stats.replays_confirmed + 1;
    (Some r, r.Witness.packet, ok)
  end
  else
    let pkt = Compose.witness_packet model ~max_len in
    let confirmed =
      cfg.validate_witnesses
      &&
      match expect with
      | Witness.Crash_at node -> validate_crash pl pkt node
      | _ -> false
    in
    (None, pkt, confirmed)

let trace_reads_kv (st : Compose.t) =
  List.exists
    (fun (_, ev) -> match ev with S.Kv_read _ -> true | _ -> false)
    st.Compose.kv_trace

let segment_reads_kv (seg : Engine.segment) =
  List.exists
    (function S.Kv_read _ -> true | S.Kv_write _ -> false)
    seg.Engine.kv_log

exception Path_budget

(* {1:worksteal Work-stealing Step-2}

   With [jobs > 1], Step-2 is a dynamic task graph on the {!Pool}
   helping scheduler instead of a pre-partitioned frontier: every
   composite tree node ([W_subtree]) and every terminal feasibility
   check ([W_check]) becomes its own task, spawned as its parent
   expands. A subtree task is pure [Compose] work — expand one node's
   segments, spawn a task per work item, await the children and merge;
   only check tasks touch the solver.

   Each pool domain lazily builds one {e persistent} incremental
   context and re-seeds it at every check task ("clone on steal": pop
   all scopes, push one, assert the task's accumulated prefix). The
   re-seed itself is cheap — scopes are just term lists — while the
   expensive state (blasted term DAG, gate encodings, learned clauses)
   stays with the domain across every task it runs. The coarse
   frontier partitioning this replaces re-rooted each subtree into a
   brand-new context, re-blasting the shared prefix per subtree and
   solving all frontier checks flat.

   The instruction bound spawns only subtree tasks: it collects the
   completed paths and checks them afterwards, sequentially.

   Determinism: a parent merges child results in spawn (= DFS) order,
   so violation lists, collected paths and counters come out exactly
   as the sequential DFS orders them. The composite-path budget is one
   atomic counter shared by every task; a task that finds it exhausted
   returns a budget-hit marker instead of expanding.

   Check tasks never await anything, so a domain that helps (runs
   another task while blocked in [Pool.await]) can never interleave
   two users of its context: only check tasks use the context, and
   they run to completion before the helping await returns. *)

type 'chk work =
  | W_check of 'chk
  | W_subtree of int * Compose.t

let with_jobs cfg f =
  if cfg.jobs <= 1 then f None
  else Pool.with_pool cfg.jobs (fun pool -> f (Some pool))

(* One persistent Step-2 context per pool domain, built on first use;
   a fresh key per run keeps runs (and their configs) isolated. *)
let worker_ctx_key cfg = Domain.DLS.new_key (fun () -> make_step2 cfg)

let reseed step2 (st : Compose.t) =
  match step2 with
  | Flat _ -> ()
  | Incremental c ->
    while Solver.depth c > 0 do
      Solver.pop c
    done;
    Solver.push c;
    Solver.assert_terms c (List.rev st.Compose.cond)

(* Fold the pool's scheduler counters into the global solver stats;
   the bench harness reports them alongside the solver counters. *)
let record_sched pool =
  let ps = Pool.stats pool in
  let g = Solver.stats in
  g.Solver.sched_spawned <- g.Solver.sched_spawned + ps.Pool.spawned;
  g.Solver.sched_executed <- g.Solver.sched_executed + ps.Pool.executed;
  g.Solver.sched_stolen <- g.Solver.sched_stolen + ps.Pool.stolen;
  g.Solver.sched_busy <- g.Solver.sched_busy +. ps.Pool.busy_seconds;
  g.Solver.sched_idle <- g.Solver.sched_idle +. ps.Pool.idle_seconds;
  Array.iteri
    (fun i n -> g.Solver.sched_hist.(i) <- g.Solver.sched_hist.(i) + n)
    ps.Pool.hist

(* Certificates are produced and checked as their own pool tasks, so
   proof production/checking overlaps ongoing solving instead of
   serializing after each refutation. The answering context's
   preprocessing result and unsat core must be captured synchronously
   (the context is re-seeded by the domain's next task); only the
   produce-and-check work is deferred. The futures are drained before
   the run reads its certification summary. *)
type cert_queue = {
  cq_mutex : Mutex.t;
  mutable cq_futs : unit Pool.future list;
}

let make_cert_queue () = { cq_mutex = Mutex.create (); cq_futs = [] }

let async_cert pool q cert step2 (st : Compose.t) =
  match cert with
  | None -> ()
  | Some col ->
    let pre, core = cert_pre_core step2 in
    let cond = st.Compose.cond in
    let fut =
      Pool.spawn pool (fun () ->
          ignore
            (Vdp_cert.Certificate.certify_refutation ?pre ?core col cond
              : (Vdp_cert.Certificate.t, string) result))
    in
    Mutex.lock q.cq_mutex;
    q.cq_futs <- fut :: q.cq_futs;
    Mutex.unlock q.cq_mutex

let drain_certs pool q =
  Mutex.lock q.cq_mutex;
  let futs = q.cq_futs in
  q.cq_futs <- [];
  Mutex.unlock q.cq_mutex;
  List.iter (fun f -> Pool.await pool f) futs

(* Step-2 counters produced by one worker, merged positionally. *)
let merge_counters into (from : stats) =
  into.composite_paths <- into.composite_paths + from.composite_paths;
  into.suspect_checks <- into.suspect_checks + from.suspect_checks;
  into.refuted <- into.refuted + from.refuted;
  into.unknown_checks <- into.unknown_checks + from.unknown_checks;
  into.replays <- into.replays + from.replays;
  into.replays_confirmed <- into.replays_confirmed + from.replays_confirmed

(* {1 Crash freedom} *)

(* The DFS body shared by the sequential pass and each parallel
   subtree worker. [check_one] expects the context to hold the state
   {e before} the crash segment's constraints; it enters/leaves the
   crash state itself. [?outcome] overrides the segment's own outcome
   in the reported violation — used when composition discovers that a
   segment dips below the {e remaining} headroom budget even though the
   element-local summary (which assumed a full budget) did not crash.
   [danger.(i)] marks nodes where some segment's worst push excursion
   can exceed the least budget any path carries in (a static
   over-approximation): only there do drop/emit segments need the
   per-path dip check, so headroom-safe pipelines pay nothing. *)
let crash_visitor cfg pl nodes (summaries : Summaries.entry array)
    has_suspect danger ~(stats : stats) ~violations ~unknowns ~certify step2 =
  let check_one ?outcome node (seg : Engine.segment) (st' : Compose.t) =
    stats.suspect_checks <- stats.suspect_checks + 1;
    enter step2 st';
    (match check_small step2 ~max_conflicts:cfg.solver_budget st' with
    | Solver.Unsat ->
      stats.refuted <- stats.refuted + 1;
      certify st'
    | Solver.Unknown ->
      stats.unknown_checks <- stats.unknown_checks + 1;
      incr unknowns
    | Solver.Sat model ->
      let stateful =
        trace_reads_kv st' && segment_reads_kv seg
      in
      let replayed, witness, confirmed =
        replay_model cfg pl stats ~model ~st:st'
          ~expect:(Witness.Crash_at node)
      in
      violations :=
        {
          node;
          element = nodes.(node).Click.Pipeline.element.Click.Element.name;
          outcome =
            (match outcome with Some o -> o | None -> seg.Engine.outcome);
          cond = st'.Compose.cond;
          witness = Some witness;
          confirmed;
          stateful;
          replayed;
        }
        :: !violations);
    leave step2
  in
  let rec visit node (st : Compose.t) =
    stats.composite_paths <- stats.composite_paths + 1;
    if stats.composite_paths > cfg.max_composite_paths then
      raise Path_budget;
    let tag = Printf.sprintf "n%d" node in
    let deps = summaries.(node).Summaries.result.Engine.static_deps in
    List.iter
      (fun (seg : Engine.segment) ->
        match seg.Engine.outcome with
        | Engine.O_crash _ ->
          let st' = Compose.apply ~deps st ~tag seg in
          let outcome =
            if st'.Compose.headroom_short then
              Some (Engine.O_crash Engine.C_headroom)
            else None
          in
          check_one ?outcome node seg st'
        | Engine.O_drop ->
          if danger.(node) then begin
            let st' = Compose.apply ~deps st ~tag seg in
            if st'.Compose.headroom_short then
              check_one ~outcome:(Engine.O_crash Engine.C_headroom) node seg
                st'
          end
        | Engine.O_emit p -> (
          let dst =
            match nodes.(node).Click.Pipeline.outputs.(p) with
            | Some (dst, _) when has_suspect.(dst) -> Some dst
            | _ -> None
          in
          if danger.(node) || dst <> None then
            let st' = Compose.apply ~deps st ~tag seg in
            if st'.Compose.headroom_short then
              (* The runtime crashes mid-segment; nothing runs behind
                 this element on such a path, so do not descend. *)
              check_one ~outcome:(Engine.O_crash Engine.C_headroom) node seg
                st'
            else
              match dst with
              | Some dst when Compose.plausible st' ->
                enter step2 st';
                visit dst st';
                leave step2
              | _ -> ()))
      summaries.(node).Summaries.result.Engine.segments
  in
  (check_one, visit)

type crash_check = {
  cc_node : int;
  cc_seg : Engine.segment;
  cc_st : Compose.t;  (* state after applying the crash segment *)
  cc_outcome : Engine.outcome option;
      (* overriding outcome (composition-level headroom crash) *)
}

(* One visit step of the crash DFS, as frontier expansion — mirrors the
   segment loop of [crash_visitor.visit], including the headroom dip
   checks gated on [danger]. *)
let crash_expand nodes (summaries : Summaries.entry array) has_suspect danger
    node st =
  let tag = Printf.sprintf "n%d" node in
  let deps = summaries.(node).Summaries.result.Engine.static_deps in
  let hr_check seg st' =
    [ W_check
        { cc_node = node; cc_seg = seg; cc_st = st';
          cc_outcome = Some (Engine.O_crash Engine.C_headroom) } ]
  in
  List.concat_map
    (fun (seg : Engine.segment) ->
      match seg.Engine.outcome with
      | Engine.O_crash _ ->
        let st' = Compose.apply ~deps st ~tag seg in
        if st'.Compose.headroom_short then hr_check seg st'
        else
          [ W_check
              { cc_node = node; cc_seg = seg; cc_st = st';
                cc_outcome = None } ]
      | Engine.O_drop ->
        if danger.(node) then begin
          let st' = Compose.apply ~deps st ~tag seg in
          if st'.Compose.headroom_short then hr_check seg st' else []
        end
        else []
      | Engine.O_emit p -> (
        let dst =
          match nodes.(node).Click.Pipeline.outputs.(p) with
          | Some (dst, _) when has_suspect.(dst) -> Some dst
          | _ -> None
        in
        if danger.(node) || dst <> None then
          let st' = Compose.apply ~deps st ~tag seg in
          if st'.Compose.headroom_short then hr_check seg st'
          else
            match dst with
            | Some dst when Compose.plausible st' -> [ W_subtree (dst, st') ]
            | _ -> []
        else []))
    summaries.(node).Summaries.result.Engine.segments

let check_crash_freedom ?(config = default_config) (pl : Click.Pipeline.t) :
    report =
  with_jobs config @@ fun pool ->
  let stats = fresh_stats () in
  let cert = make_cert config in
  let summaries = step1 ?pool config pl stats in
  let nodes = Click.Pipeline.nodes pl in
  let n = Array.length nodes in
  let entry = Click.Pipeline.entry pl in
  let order = Click.Pipeline.topological_order pl in
  (* Static headroom budgeting: [budget.(i)] is the least remaining
     headroom any path can carry into node [i] (forward min-plus pass
     over the segments' net head deltas). A node is a [danger] node iff
     some segment's worst push excursion can dip below that least
     budget — an over-approximation of the per-path [headroom_short]
     check, so pipelines that provably stay within budget skip the
     dynamic dip checks entirely. *)
  let budget = Array.make n max_int in
  budget.(entry) <- config.engine.Engine.headroom;
  let danger = Array.make n false in
  List.iter
    (fun i ->
      if budget.(i) < max_int then
        List.iter
          (fun (seg : Engine.segment) ->
            let out = seg.Engine.out_state in
            if budget.(i) + out.Engine.min_delta < 0 then danger.(i) <- true;
            match seg.Engine.outcome with
            | Engine.O_emit p -> (
              match nodes.(i).Click.Pipeline.outputs.(p) with
              | Some (dst, _) ->
                let b = budget.(i) + out.Engine.head_delta in
                if b < budget.(dst) then budget.(dst) <- b
              | None -> ())
            | Engine.O_drop | Engine.O_crash _ -> ())
          summaries.(i).Summaries.result.Engine.segments)
    order;
  (* Which nodes can still lead to a suspect segment (their own crash
     segments, a possible headroom dip, or either further down)? *)
  let has_suspect = Array.make n false in
  List.iter
    (fun i ->
      let own =
        danger.(i)
        || List.exists Summaries.is_suspect_crash
             summaries.(i).Summaries.result.Engine.segments
      in
      let below =
        Array.exists
          (function
            | Some (dst, _) -> has_suspect.(dst)
            | None -> false)
          nodes.(i).Click.Pipeline.outputs
      in
      has_suspect.(i) <- own || below)
    (List.rev order);
  Array.iter
    (fun (e : Summaries.entry) ->
      stats.suspects <-
        stats.suspects
        + List.length
            (List.filter Summaries.is_suspect_crash
               e.Summaries.result.Engine.segments))
    summaries;
  let t0 = now () in
  let violations, unknowns, budget_hit =
    match pool with
    | Some pool when Pool.size pool > 1 && has_suspect.(entry) ->
      let key = worker_ctx_key config in
      let visits = Atomic.make 0 in
      let cq = make_cert_queue () in
      (* A check task re-seeds its domain's context with the state
         {e before} the crash segment ([check_one] enters/leaves the
         crash state itself, mirroring the sequential DFS). *)
      let check_leaf { cc_node; cc_seg; cc_st; cc_outcome } st_parent () =
        let local = fresh_stats () in
        let violations = ref [] and unknowns = ref 0 in
        let step2 = Domain.DLS.get key in
        reseed step2 st_parent;
        let check_one, _ =
          crash_visitor config pl nodes summaries has_suspect danger
            ~stats:local ~violations ~unknowns
            ~certify:(fun st -> async_cert pool cq cert step2 st)
            step2
        in
        check_one ?outcome:cc_outcome cc_node cc_seg cc_st;
        (List.rev !violations, !unknowns, local, false)
      in
      let rec subtree node st () =
        let local = fresh_stats () in
        local.composite_paths <- 1;
        if Atomic.fetch_and_add visits 1 >= config.max_composite_paths then
          ([], 0, local, true)
        else
          let futs =
            List.map
              (function
                | W_check chk -> Pool.spawn pool (check_leaf chk st)
                | W_subtree (dst, st') -> Pool.spawn pool (subtree dst st'))
              (crash_expand nodes summaries has_suspect danger node st)
          in
          List.fold_left
            (fun (vs, unk, acc, bh) fut ->
              let vs_i, unk_i, s_i, bh_i = Pool.await pool fut in
              merge_counters acc s_i;
              (vs @ vs_i, unk + unk_i, acc, bh || bh_i))
            ([], 0, local, false) futs
      in
      let st0 = initial_state config in
      let vs, unk, s, bh =
        Pool.await pool (Pool.spawn pool (subtree entry st0))
      in
      merge_counters stats s;
      drain_certs pool cq;
      record_sched pool;
      (vs, unk, bh)
    | _ ->
      let step2 = make_step2 config in
      let violations = ref [] in
      let unknowns = ref 0 in
      let _, visit =
        crash_visitor config pl nodes summaries has_suspect danger ~stats
          ~violations ~unknowns ~certify:(certify_now cert step2) step2
      in
      let budget_hit =
        try
          if has_suspect.(entry) then begin
            let st0 = initial_state config in
            enter step2 st0;
            visit entry st0;
            leave step2
          end;
          false
        with Path_budget -> true
      in
      (List.rev !violations, !unknowns, budget_hit)
  in
  stats.step2_time <- now () -. t0;
  let verdict =
    if violations <> [] then Violated violations
    else if budget_hit then Unknown "composite path budget exceeded"
    else if unknowns > 0 then Unknown "solver budget exceeded on some checks"
    else if any_incomplete summaries then
      Unknown "element symbolic execution was incomplete"
    else Proved
  in
  { verdict; stats; cert = cert_summary cert }

(* {1 Incremental (delta) re-verification}

   A [session] memoizes the last crash-freedom report for one pipeline
   and re-validates it by probing the Step-1 summary cache: the report
   is a deterministic function of the element summaries (plus config),
   so if every summary entry comes back {e physically} unchanged — i.e.
   no static-store mutation invalidated any of them since the last run
   — the previous [Proved] verdict still holds and is returned without
   re-composing or re-solving anything. A mutation that does invalidate
   a summary makes the probe recompute exactly that element; the
   mismatch then triggers a full (but cache-warm) re-verification.
   Non-[Proved] reports are never reused: a violation's witness is
   replayed against {e current} store contents, so its confirmation
   status must be recomputed. *)

type session = {
  s_pl : Click.Pipeline.t;
  s_config : config;
  mutable s_prev : (Summaries.entry array * report) option;
}

let session ?(config = default_config) pl =
  Staleness.install ();
  { s_pl = pl; s_config = config; s_prev = None }

let verify_crash (s : session) : report * bool =
  let probe () = Summaries.of_pipeline ~config:s.s_config.engine s.s_pl in
  match s.s_prev with
  | Some (prev, r)
    when (match r.verdict with Proved -> true | _ -> false)
         && Summaries.unchanged prev (probe ()) ->
    (r, true)
  | _ ->
    let r = check_crash_freedom ~config:s.s_config s.s_pl in
    s.s_prev <- Some (probe (), r);
    (r, false)

(* {1 Bounded execution} *)

type bound_report = {
  bound : int option;  (** max instructions over feasible paths *)
  exact : bool;
      (** false if any loop summary contributed slack, or if a
          candidate path longer than [bound] came back [Unknown] (the
          true maximum might then exceed the reported one) *)
  witness : Vdp_packet.Packet.t option;
  measured : int option;
      (** instructions the runtime actually spent on the witness *)
  b_replayed : Witness.t option;
      (** replay record of the witness (with its derived initial
          state), when [config.replay] was on *)
  b_stats : stats;
  b_verdict : verdict;  (** Unknown if exploration was incomplete *)
  b_cert : Vdp_cert.Certificate.summary option;
}

(* One visit step of the bound DFS, as frontier expansion. The check
   payload is a completed path's final state. *)
let bound_expand nodes (summaries : Summaries.entry array) node st =
  let tag = Printf.sprintf "n%d" node in
  let deps = summaries.(node).Summaries.result.Engine.static_deps in
  List.concat_map
    (fun (seg : Engine.segment) ->
      let st' = Compose.apply ~deps st ~tag seg in
      if not (Compose.plausible st') then []
      else
        match seg.Engine.outcome with
        | Engine.O_crash _ | Engine.O_drop -> [ W_check st' ]
        | Engine.O_emit p -> (
          match nodes.(node).Click.Pipeline.outputs.(p) with
          | None -> [ W_check st' ]
          | Some (dst, _) -> [ W_subtree (dst, st') ]))
    summaries.(node).Summaries.result.Engine.segments

let instruction_bound ?(config = default_config) (pl : Click.Pipeline.t) :
    bound_report =
  with_jobs config @@ fun pool ->
  let stats = fresh_stats () in
  let cert = make_cert config in
  let summaries = step1 ?pool config pl stats in
  let nodes = Click.Pipeline.nodes pl in
  let t0 = now () in
  (* The longest feasible path: (instr_hi, final state, model). *)
  let best : (int * Compose.t * Vdp_smt.Model.t) option ref = ref None in
  (* Longest candidate that came back Unknown; if it exceeds the final
     bound, the bound may undercount and must not be reported exact. *)
  let unknown_hi = ref (-1) in
  (* Step 2 collects every completed path, then checks them
     longest-first: every path longer than the bound must be refuted in
     any order, and the first satisfiable one gives the bound. A pool
     only expands the composite tree; the checks run in the same
     sequential search, so [-j N] makes the same checks as [-j 1]. *)
  let budget_hit, completed =
    match pool with
    | Some pool when Pool.size pool > 1 ->
      let visits = Atomic.make 0 in
      (* Task result: (completed paths in DFS order, composite paths
         visited, budget hit). *)
      let rec subtree node st () =
        if Atomic.fetch_and_add visits 1 >= config.max_composite_paths then
          ([], 1, true)
        else
          let items =
            List.map
              (function
                | W_check chk -> Either.Left chk
                | W_subtree (dst, st') ->
                  Either.Right (Pool.spawn pool (subtree dst st')))
              (bound_expand nodes summaries node st)
          in
          let parts, paths, bh =
            List.fold_left
              (fun (parts, paths, bh) -> function
                | Either.Left chk -> ([ chk ] :: parts, paths, bh)
                | Either.Right fut ->
                  let comp_i, paths_i, bh_i = Pool.await pool fut in
                  (comp_i :: parts, paths + paths_i, bh || bh_i))
              ([], 1, false) items
          in
          (List.concat (List.rev parts), paths, bh)
      in
      let comp, paths, bh =
        Pool.await pool
          (Pool.spawn pool
             (subtree (Click.Pipeline.entry pl) (initial_state config)))
      in
      stats.composite_paths <- stats.composite_paths + paths;
      record_sched pool;
      (bh, comp)
    | _ ->
      let completed = ref [] in
      let rec visit node st =
        stats.composite_paths <- stats.composite_paths + 1;
        if stats.composite_paths > config.max_composite_paths then
          raise Path_budget;
        List.iter
          (function
            | W_check chk -> completed := chk :: !completed
            | W_subtree (dst, st') -> visit dst st')
          (bound_expand nodes summaries node st)
      in
      let bh =
        try
          visit (Click.Pipeline.entry pl) (initial_state config);
          false
        with Path_budget -> true
      in
      (bh, List.rev !completed)
  in
  let step2 = make_step2 config in
  let rec search = function
    | [] -> ()
    | (st : Compose.t) :: rest -> (
      stats.suspect_checks <- stats.suspect_checks + 1;
      reseed step2 st;
      match check_state step2 ~max_conflicts:config.solver_budget st [] with
      | Solver.Sat model -> best := Some (st.Compose.instr_hi, st, model)
      | Solver.Unsat ->
        stats.refuted <- stats.refuted + 1;
        certify_now cert step2 st;
        search rest
      | Solver.Unknown ->
        stats.unknown_checks <- stats.unknown_checks + 1;
        if st.Compose.instr_hi > !unknown_hi then
          unknown_hi := st.Compose.instr_hi;
        search rest)
  in
  (* Stable: equal lengths keep DFS order, and so the sequential witness. *)
  search
    (List.stable_sort
       (fun (a : Compose.t) (b : Compose.t) ->
         Int.compare b.Compose.instr_hi a.Compose.instr_hi)
       completed);
  let bound, exact =
    match !best with
    | Some (b, st, _) ->
      (Some b, (not st.Compose.summarized) && !unknown_hi <= b)
    | None -> (None, false)
  in
  let witness, measured, b_replayed =
    match !best with
    | None -> (None, None, None)
    | Some (_, st, model) ->
      let max_len = config.engine.Engine.max_len in
      if config.replay && config.validate_witnesses then begin
        (* Load the private state the longest path assumed, then require
           the runtime's count to land inside the path's interval. *)
        let r =
          Witness.replay pl ~max_len ~model ~st
            ~expect:
              (Witness.Instrs_between
                 (st.Compose.instr_lo, st.Compose.instr_hi))
        in
        stats.replays <- stats.replays + 1;
        if Witness.confirmed r then
          stats.replays_confirmed <- stats.replays_confirmed + 1;
        ( Some r.Witness.packet,
          Some r.Witness.run.Click.Runtime.total_instrs,
          Some r )
      end
      else
        let pkt = Compose.witness_packet model ~max_len in
        if config.validate_witnesses then
          let inst = Click.Runtime.instantiate pl in
          let r = Click.Runtime.push inst (Vdp_packet.Packet.clone pkt) in
          (Some pkt, Some r.Click.Runtime.total_instrs, None)
        else (Some pkt, None, None)
  in
  stats.step2_time <- now () -. t0;
  let verdict =
    if budget_hit then Unknown "composite path budget exceeded"
    else if any_incomplete summaries then
      Unknown "element symbolic execution was incomplete"
    else if stats.unknown_checks > 0 then
      Unknown "solver budget exceeded on some checks"
    else Proved
  in
  {
    bound;
    exact;
    witness;
    measured;
    b_replayed;
    b_stats = stats;
    b_verdict = verdict;
    b_cert = cert_summary cert;
  }

(* {1 Reachability} *)

(** [check_reachability ~assume ~bad pl] proves that no input packet
    satisfying [assume] can end in a way matching [bad]; returns
    violations (with witnesses) otherwise. *)
type path_end =
  | End_egress of int  (** pipeline egress number *)
  | End_drop of int    (** node index that dropped *)
  | End_crash of int

let expect_of_end = function
  | End_egress e -> Witness.Egress_at e
  | End_drop n -> Witness.Drop_at n
  | End_crash n -> Witness.Crash_at n

(* The reachability DFS body. [check_end] expects the context to hold
   [st.cond] already (its caller entered the state). *)
let reach_visitor cfg pl nodes (summaries : Summaries.entry array) ~bad
    ~(stats : stats) ~violations ~unknowns ~certify step2 =
  let check_end node (st : Compose.t) outcome path_end =
    if bad path_end then begin
      stats.suspect_checks <- stats.suspect_checks + 1;
      match check_small step2 ~max_conflicts:cfg.solver_budget st with
      | Solver.Unsat ->
        stats.refuted <- stats.refuted + 1;
        certify st
      | Solver.Unknown ->
        stats.unknown_checks <- stats.unknown_checks + 1;
        incr unknowns
      | Solver.Sat model ->
        let replayed, witness, confirmed =
          replay_model cfg pl stats ~model ~st
            ~expect:(expect_of_end path_end)
        in
        violations :=
          {
            node;
            element = nodes.(node).Click.Pipeline.element.Click.Element.name;
            outcome;
            cond = st.Compose.cond;
            witness = Some witness;
            confirmed;
            stateful = trace_reads_kv st;
            replayed;
          }
          :: !violations
    end
  in
  let rec visit node (st : Compose.t) =
    stats.composite_paths <- stats.composite_paths + 1;
    if stats.composite_paths > cfg.max_composite_paths then
      raise Path_budget;
    let tag = Printf.sprintf "n%d" node in
    let deps = summaries.(node).Summaries.result.Engine.static_deps in
    List.iter
      (fun (seg : Engine.segment) ->
        let st' = Compose.apply ~deps st ~tag seg in
        if Compose.plausible st' then
          match seg.Engine.outcome with
          | Engine.O_crash _ ->
            enter step2 st';
            check_end node st' seg.Engine.outcome (End_crash node);
            leave step2
          | Engine.O_drop ->
            enter step2 st';
            check_end node st' seg.Engine.outcome (End_drop node);
            leave step2
          | Engine.O_emit p -> (
            match nodes.(node).Click.Pipeline.outputs.(p) with
            | None -> (
              match Click.Pipeline.egress_index pl ~node ~port:p with
              | Some e ->
                enter step2 st';
                check_end node st' seg.Engine.outcome (End_egress e);
                leave step2
              | None -> ())
            | Some (dst, _) ->
              enter step2 st';
              visit dst st';
              leave step2))
      summaries.(node).Summaries.result.Engine.segments
  in
  (check_end, visit)

type reach_check = {
  rc_node : int;
  rc_outcome : Engine.outcome;
  rc_end : path_end;
  rc_st : Compose.t;
}

(* One visit step of the reachability DFS, as frontier expansion; only
   path ends matching [bad] become check items. *)
let reach_expand pl nodes (summaries : Summaries.entry array) ~bad node st =
  let tag = Printf.sprintf "n%d" node in
  let deps = summaries.(node).Summaries.result.Engine.static_deps in
  let check seg st' path_end =
    if bad path_end then
      [ W_check
          { rc_node = node; rc_outcome = seg.Engine.outcome;
            rc_end = path_end; rc_st = st' } ]
    else []
  in
  List.concat_map
    (fun (seg : Engine.segment) ->
      let st' = Compose.apply ~deps st ~tag seg in
      if not (Compose.plausible st') then []
      else
        match seg.Engine.outcome with
        | Engine.O_crash _ -> check seg st' (End_crash node)
        | Engine.O_drop -> check seg st' (End_drop node)
        | Engine.O_emit p -> (
          match nodes.(node).Click.Pipeline.outputs.(p) with
          | None -> (
            match Click.Pipeline.egress_index pl ~node ~port:p with
            | Some e -> check seg st' (End_egress e)
            | None -> [])
          | Some (dst, _) -> [ W_subtree (dst, st') ]))
    summaries.(node).Summaries.result.Engine.segments

let check_reachability ?(config = default_config) ~bad (pl : Click.Pipeline.t)
    : report =
  with_jobs config @@ fun pool ->
  let stats = fresh_stats () in
  let cert = make_cert config in
  let summaries = step1 ?pool config pl stats in
  let nodes = Click.Pipeline.nodes pl in
  let t0 = now () in
  let violations, unknowns, budget_hit =
    match pool with
    | Some pool when Pool.size pool > 1 ->
      let key = worker_ctx_key config in
      let visits = Atomic.make 0 in
      let cq = make_cert_queue () in
      (* [check_end] expects the context to hold the path-end state in
         full, so the check task re-seeds with [rc_st] itself. *)
      let check_leaf { rc_node; rc_outcome; rc_end; rc_st } () =
        let local = fresh_stats () in
        let violations = ref [] and unknowns = ref 0 in
        let step2 = Domain.DLS.get key in
        reseed step2 rc_st;
        let check_end, _ =
          reach_visitor config pl nodes summaries ~bad ~stats:local
            ~violations ~unknowns
            ~certify:(fun st -> async_cert pool cq cert step2 st)
            step2
        in
        check_end rc_node rc_st rc_outcome rc_end;
        (List.rev !violations, !unknowns, local, false)
      in
      let rec subtree node st () =
        let local = fresh_stats () in
        local.composite_paths <- 1;
        if Atomic.fetch_and_add visits 1 >= config.max_composite_paths then
          ([], 0, local, true)
        else
          let futs =
            List.map
              (function
                | W_check chk -> Pool.spawn pool (check_leaf chk)
                | W_subtree (dst, st') -> Pool.spawn pool (subtree dst st'))
              (reach_expand pl nodes summaries ~bad node st)
          in
          List.fold_left
            (fun (vs, unk, acc, bh) fut ->
              let vs_i, unk_i, s_i, bh_i = Pool.await pool fut in
              merge_counters acc s_i;
              (vs @ vs_i, unk + unk_i, acc, bh || bh_i))
            ([], 0, local, false) futs
      in
      let st0 = initial_state config in
      let vs, unk, s, bh =
        Pool.await pool
          (Pool.spawn pool (subtree (Click.Pipeline.entry pl) st0))
      in
      merge_counters stats s;
      drain_certs pool cq;
      record_sched pool;
      (vs, unk, bh)
    | _ ->
      let violations = ref [] in
      let unknowns = ref 0 in
      let step2 = make_step2 config in
      let _, visit =
        reach_visitor config pl nodes summaries ~bad ~stats ~violations
          ~unknowns ~certify:(certify_now cert step2) step2
      in
      let budget_hit =
        try
          let st0 = initial_state config in
          enter step2 st0;
          visit (Click.Pipeline.entry pl) st0;
          leave step2;
          false
        with Path_budget -> true
      in
      (List.rev !violations, !unknowns, budget_hit)
  in
  stats.step2_time <- now () -. t0;
  let verdict =
    if violations <> [] then Violated violations
    else if budget_hit then Unknown "composite path budget exceeded"
    else if unknowns > 0 then Unknown "solver budget exceeded on some checks"
    else if any_incomplete summaries then
      Unknown "element symbolic execution was incomplete"
    else Proved
  in
  { verdict; stats; cert = cert_summary cert }
