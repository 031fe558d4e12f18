module Ir = Xinv_ir
module Sim = Xinv_sim
module Par = Xinv_parallel
module Wl = Xinv_workloads
module Nat = Xinv_native
module Cache = Xinv_cache

type technique =
  | Sequential
  | Barrier
  | Doacross
  | Dswp
  | Inspector
  | Tls
  | Domore
  | Domore_dup
  | Speccross
  | Speccross_inject of int

let inject_prefix = "speccross-inject@"

let technique_name = function
  | Sequential -> "sequential"
  | Barrier -> "barrier"
  | Doacross -> "doacross"
  | Dswp -> "dswp"
  | Inspector -> "inspector-executor"
  | Tls -> "tls"
  | Domore -> "domore"
  | Domore_dup -> "domore-dup"
  | Speccross -> "speccross"
  | Speccross_inject e -> inject_prefix ^ string_of_int e

let technique_of_string s =
  match String.lowercase_ascii s with
  | "sequential" | "seq" -> Some Sequential
  | "barrier" | "pthread" -> Some Barrier
  | "doacross" -> Some Doacross
  | "dswp" -> Some Dswp
  | "inspector" | "inspector-executor" | "ie" -> Some Inspector
  | "tls" -> Some Tls
  | "domore" -> Some Domore
  | "domore-dup" -> Some Domore_dup
  | "speccross" -> Some Speccross
  | s when String.starts_with ~prefix:inject_prefix s -> (
      let p = String.length inject_prefix in
      let epoch = String.sub s p (String.length s - p) in
      if String.for_all (fun c -> c >= '0' && c <= '9') epoch then
        Option.map (fun e -> Speccross_inject e) (int_of_string_opt epoch)
      else None)
  | _ -> None

type cost = Sim_cycles of float | Wall_ns of float

let cost_value = function Sim_cycles c -> c | Wall_ns ns -> ns

let cost_to_string = function
  | Sim_cycles c -> Printf.sprintf "%.0f cycles" c
  | Wall_ns ns -> Printf.sprintf "%.3f ms" (ns /. 1e6)

type native_opts = {
  work : Nat.Work.t;
  pool : Nat.Pool.t option;
  fault : Nat.Fault.spec option;
  deadline_ms : float option;
  wait_timeout_ms : float option;
  degrade : bool;
  grain : int;
  batch : int;
  flight : bool;
  postmortem_dir : string option;
  on_flight : (Xinv_obs.Flight.t -> unit) option;
  on_watchdog : (Nat.Watchdog.t -> unit) option;
}

let native_defaults =
  {
    work = Nat.Work.Off;
    pool = None;
    fault = None;
    deadline_ms = None;
    wait_timeout_ms = None;
    degrade = true;
    grain = Cache.Policy.default.grain;
    batch = Cache.Policy.default.batch;
    flight = false;
    postmortem_dir = None;
    on_flight = None;
    on_watchdog = None;
  }

type backend = [ `Sim of Sim.Machine.t option | `Native of native_opts ]

type degrade_step = { d_from : technique; d_to : technique; d_reason : string }

type outcome = {
  technique : technique;  (** the technique that actually executed *)
  cost : cost;
  seq_cost : cost option;
  speedup : float option;
  verified : bool;
  mismatches : (string * int) list;
  profile : Xinv_speccross.Profiler.t option;
  run : Par.Run.t option;
  nrun : Nat.Nrun.t option;
  degraded : degrade_step list;
  analysis_ns : float;
  cache_hits : int;
  cache_misses : int;
  flight : Xinv_obs.Flight.t option;
  postmortems : string list;
  policy_source : string;
}

(* ---- analysis front door ----

   Every compile-time/profiling step of a run — [Mtcg.generate] and
   [Profiler.profile] — goes through this context, which (a) accumulates the
   wall time spent in analysis regardless of caching, and (b) consults the
   incremental analysis cache for the profile when one is attached.  The
   MTCG plan is always derived fresh: it is cheaper than a cache lookup. *)

type analysis_ctx = {
  a_cache : Cache.Analysis.t option;
  mutable a_ns : float;
}

let analysis_ctx ?obs cache cache_dir =
  let a_cache =
    match cache with
    | `Off -> None
    | (`Ro | `Rw) as mode ->
        Some (Cache.Analysis.make ?obs ?dir:cache_dir ~mode ())
  in
  { a_cache; a_ns = 0. }

let timed actx f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  actx.a_ns <- actx.a_ns +. ((Unix.gettimeofday () -. t0) *. 1e9);
  r

let mtcg_verdict actx program env =
  timed actx (fun () -> Ir.Mtcg.generate program env)

let profiler_profile actx program env =
  timed actx (fun () ->
      match actx.a_cache with
      | None -> Xinv_speccross.Profiler.profile program env
      | Some c -> Cache.Analysis.profile c program env)

let cache_stats actx =
  match actx.a_cache with
  | None -> (0, 0)
  | Some c -> (Cache.Analysis.hits c, Cache.Analysis.misses c)

let spec_mode_of_plan (wl : Wl.Workload.t) label =
  match Wl.Workload.technique_of wl label with
  | Par.Intra.Doall | Par.Intra.Spec_doall -> Xinv_speccross.Runtime.M_doall
  | Par.Intra.Localwrite -> Xinv_speccross.Runtime.M_localwrite
  | Par.Intra.Doany -> Xinv_speccross.Runtime.M_doall

let native_supported = function
  | Sequential | Barrier | Domore | Domore_dup | Speccross
  | Speccross_inject _ ->
      true
  | Doacross | Dswp | Inspector | Tls -> false

let supported ~backend =
  let all =
    [ Sequential; Barrier; Doacross; Dswp; Inspector; Tls; Domore; Domore_dup;
      Speccross ]
  in
  match backend with
  | `Sim -> all
  | `Native -> List.filter native_supported all

let applicable ?(backend = `Sim) technique (wl : Wl.Workload.t) =
  let shared () =
    match technique with
    | Sequential | Barrier | Doacross | Dswp -> Ok ()
    | Inspector | Tls | Domore | Domore_dup ->
        Par.Plan.domore_applicable
          (wl.Wl.Workload.program Wl.Workload.Ref)
          (wl.Wl.Workload.fresh_env Wl.Workload.Ref)
    | Speccross | Speccross_inject _ ->
        if
          List.exists
            (fun (_, t) -> t = Par.Intra.Spec_doall)
            wl.Wl.Workload.plan
        then
          Error "inner loop requires speculative intra-invocation parallelization"
        else Par.Plan.speccross_applicable (wl.Wl.Workload.program Wl.Workload.Ref)
  in
  match backend with
  | `Sim -> shared ()
  | `Native ->
      if native_supported technique then shared ()
      else
        Error
          (Printf.sprintf "%s has no native backend (simulator only)"
             (technique_name technique))

(* ---- policy resolution ---- *)

let technique_of_policy (p : Cache.Policy.t) =
  match technique_of_string p.Cache.Policy.technique with
  | Some t -> t
  | None -> Sequential

(* The policy pins the performance axes (grain, batch); the caller's
   native_opts keep supplying the environmental ones (work model, pool,
   faults, deadlines, flight recording). *)
let backend_of_policy ~native (p : Cache.Policy.t) =
  match p.Cache.Policy.backend with
  | `Sim -> `Sim None
  | `Native ->
      `Native
        { native with grain = p.Cache.Policy.grain; batch = p.Cache.Policy.batch }

(* ---- online adaptive controller ---- *)

type adaptive_phase = [ `Probing | `Candidate | `Sequential ]

type adaptive = {
  a_probe_runs : int;
  a_margin : float;
  mutable a_runs : int;
  mutable a_cand_ns : float;
  mutable a_seq_ns : float;
  mutable a_phase : adaptive_phase;
  mutable a_bad : int;
  mutable a_switches : int;
}

let adaptive ?(probe_runs = 3) ?(margin = 1.1) () =
  {
    a_probe_runs = Stdlib.max 1 probe_runs;
    a_margin = margin;
    a_runs = 0;
    a_cand_ns = 0.;
    a_seq_ns = 0.;
    a_phase = `Probing;
    a_bad = 0;
    a_switches = 0;
  }

let adaptive_phase t = t.a_phase
let adaptive_switches t = t.a_switches

(* One observation of the candidate policy against the sequential baseline
   measured inside the same run.  Pure decision logic — no events — so tests
   can drive the state machine with synthetic timings. *)
let adaptive_note t ~cand_ns ~seq_ns =
  t.a_runs <- t.a_runs + 1;
  t.a_cand_ns <- t.a_cand_ns +. cand_ns;
  t.a_seq_ns <- t.a_seq_ns +. seq_ns;
  match t.a_phase with
  | `Sequential -> `Keep
  | `Probing ->
      if t.a_runs < t.a_probe_runs then `Keep
      else if t.a_cand_ns <= t.a_margin *. t.a_seq_ns then begin
        t.a_phase <- `Candidate;
        `Keep
      end
      else begin
        t.a_phase <- `Sequential;
        t.a_switches <- t.a_switches + 1;
        `Switch
      end
  | `Candidate ->
      if cand_ns > t.a_margin *. seq_ns then begin
        t.a_bad <- t.a_bad + 1;
        if t.a_bad >= 2 then begin
          t.a_phase <- `Sequential;
          t.a_switches <- t.a_switches + 1;
          `Switch
        end
        else `Keep
      end
      else begin
        t.a_bad <- 0;
        `Keep
      end

type policy =
  [ `Fixed | `Auto | `Adaptive of adaptive | `Reified of Cache.Policy.t * string ]

(* ---- the request record ----

   Every way of asking this library for one execution — the autotuner's
   measurement runs, the CLI, the experiments and one serve-daemon
   submission — is a value of this record.  [run_request] is the single
   execution path. *)

module Request = struct
  type t = {
    workload : Wl.Workload.t;
    technique : technique;
    threads : int;
    backend : backend;
    input : Wl.Workload.input;
    checkpoint_every : int;
    verify : bool;
    cache : [ `Off | `Ro | `Rw ];
    cache_dir : string option;
    obs : Xinv_obs.Recorder.t option;
    policy : policy;
    sig_kind : Cache.Policy.sig_kind;
    spec_distance : int option;
  }

  let make ?(backend = `Sim None) ?(input = Wl.Workload.Ref)
      ?(checkpoint_every = Cache.Policy.default.epoch_size) ?(verify = true)
      ?(cache = `Off) ?cache_dir ?obs ?(policy = `Fixed)
      ?(sig_kind = Cache.Policy.default.sig_kind) ?spec_distance ~technique
      ~threads workload =
    {
      workload;
      technique;
      threads;
      backend;
      input;
      checkpoint_every;
      verify;
      cache;
      cache_dir;
      obs;
      policy;
      sig_kind;
      spec_distance;
    }

  (* The caller's native_opts keep supplying the environmental knobs (work
     model, pool, faults, deadlines, flight recording) when a policy
     overrides the performance axes. *)
  let native_opts t =
    match t.backend with `Native o -> o | `Sim _ -> native_defaults

  (* Pin every axis a stored policy decides; the result is a fully-resolved
     [`Fixed] request. *)
  let apply_policy (p : Cache.Policy.t) t =
    {
      t with
      backend = backend_of_policy ~native:(native_opts t) p;
      technique = technique_of_policy p;
      threads = Stdlib.max 1 p.Cache.Policy.domains;
      checkpoint_every = p.Cache.Policy.epoch_size;
      sig_kind = p.Cache.Policy.sig_kind;
      spec_distance = p.Cache.Policy.spec_distance;
      policy = `Fixed;
    }
end

(* ---- engine configuration: the one resolution step ----

   Everything a technique's engine is configured with that does not depend
   on the backend is decided here, once per attempt: the MTCG plan, DOMORE's
   scheduling policy (§3.4) and worker count, and SPECCROSS's train-input
   profile, its §4.4 profitability verdict, speculative distance, signature
   scheme, injected misspeculation and per-loop modes.  The resolved configs
   are the simulator's own records; the native engines derive theirs from
   them, adding only the native performance knobs. *)

module Engine = struct
  type t =
    | Sequential
    | Barrier
    | Doacross
    | Dswp
    | Inspector of Ir.Mtcg.plan
    | Tls of Ir.Mtcg.plan
    | Domore of (Ir.Mtcg.plan * Xinv_domore.Domore.config)
    | Domore_dup of (Ir.Mtcg.plan * Xinv_domore.Domore.config)
    | Speccross of {
        config : Xinv_speccross.Runtime.config;
        profile : Xinv_speccross.Profiler.t;
        profitable : bool;
      }
end

(* SPECCROSS profiles the train input matching the run input's speculative
   flavour, as the paper's toolchain does. *)
let spec_profile ~actx (wl : Wl.Workload.t) input =
  let train_input =
    match input with
    | Wl.Workload.Ref_spec -> Wl.Workload.Train_spec
    | _ -> Wl.Workload.Train
  in
  let train_env = wl.Wl.Workload.fresh_env train_input in
  profiler_profile actx (wl.Wl.Workload.program train_input) train_env

(* An overridden distance below the worker count would let the throttle
   strangle the pipeline; the profiled default is clamped the same way.  With
   no profiled conflict the lead is still bounded (a few invocations) so
   threads stay loosely coupled and the checker's comparison windows stay
   small. *)
let spec_distance override (prof : Xinv_speccross.Profiler.t) ~workers =
  match (override, prof.Xinv_speccross.Profiler.min_task_distance) with
  | Some d, _ | None, Some d -> Stdlib.max workers d
  | None, None ->
      Stdlib.max (4 * workers)
        (int_of_float (4. *. prof.Xinv_speccross.Profiler.avg_tasks_per_epoch))

let reify_sig sel env =
  match sel with
  | `Segmented ->
      Xinv_runtime.Signature.Segmented (Ir.Memory.bounds env.Ir.Env.mem)
  | `Range -> Xinv_runtime.Signature.Range
  | `Bloom -> Xinv_runtime.Signature.Bloom { bits = 4096; hashes = 3 }
  | `Exact -> Xinv_runtime.Signature.Exact

let sim_machine (r : Request.t) =
  match r.Request.backend with
  | `Sim (Some m) -> m
  | `Sim None | `Native _ -> Sim.Machine.default

let resolve_with ~actx (r : Request.t) env =
  let wl = r.Request.workload in
  let program = wl.Wl.Workload.program r.Request.input in
  let machine = sim_machine r in
  let mtcg what =
    match mtcg_verdict actx program env with
    | Ir.Mtcg.Plan plan -> plan
    | Ir.Mtcg.Inapplicable reason ->
        failwith
          (Printf.sprintf "%s inapplicable to %s: %s" what wl.Wl.Workload.name
             reason)
  in
  let domore ~workers =
    let policy =
      if wl.Wl.Workload.mem_partition then Xinv_domore.Policy.Mem_partition
      else Xinv_domore.Policy.Round_robin
    in
    (mtcg "DOMORE", { Xinv_domore.Domore.machine; policy; workers })
  in
  let workers = Stdlib.max 1 (r.Request.threads - 1) in
  match r.Request.technique with
  | Sequential -> Engine.Sequential
  | Barrier -> Engine.Barrier
  | Doacross -> Engine.Doacross
  | Dswp -> Engine.Dswp
  | Inspector -> Engine.Inspector (mtcg "inspector-executor")
  | Tls -> Engine.Tls (mtcg "TLS")
  | Domore -> Engine.Domore (domore ~workers)
  | Domore_dup -> Engine.Domore_dup (domore ~workers:r.Request.threads)
  | (Speccross | Speccross_inject _) as t ->
      let profile = spec_profile ~actx wl r.Request.input in
      let config =
        {
          Xinv_speccross.Runtime.machine;
          workers;
          sig_kind = reify_sig r.Request.sig_kind env;
          checkpoint_every = r.Request.checkpoint_every;
          spec_distance = spec_distance r.Request.spec_distance profile ~workers;
          mode_of = spec_mode_of_plan wl;
          inject_misspec =
            (match t with Speccross_inject e -> Some (e, 0) | _ -> None);
          non_spec_barriers = false;
          tm_style = false;
        }
      in
      Engine.Speccross
        {
          config;
          profile;
          (* §4.4: a minimum dependence distance below the worker count
             recommends against speculating — both backends then run real
             barriers. *)
          profitable = Xinv_speccross.Profiler.profitable profile ~workers;
        }

let resolve (r : Request.t) env =
  let actx = analysis_ctx ?obs:r.Request.obs r.Request.cache r.Request.cache_dir in
  resolve_with ~actx r env

let engine_profile = function
  | Engine.Speccross { profile; _ } -> Some profile
  | _ -> None

(* ---- simulated backend ---- *)

let sim_engine ?(trace = false) (r : Request.t) engine env =
  let wl = r.Request.workload and obs = r.Request.obs in
  let program = wl.Wl.Workload.program r.Request.input in
  let machine = sim_machine r and threads = r.Request.threads in
  let barrier () =
    Par.Barrier_exec.run ~machine ?obs ~trace ~threads
      ~plan:(Wl.Workload.plan_fn wl) program env
  in
  match engine with
  | Engine.Sequential -> None
  | Engine.Barrier | Engine.Speccross { profitable = false; _ } ->
      Some (barrier ())
  | Engine.Doacross -> Some (Par.Doacross.run ~machine ?obs ~threads program env)
  | Engine.Dswp -> Some (Par.Dswp.run ~machine ?obs ~threads program env)
  | Engine.Inspector plan ->
      Some (Par.Inspector.run ~machine ~threads ~plan program env)
  | Engine.Tls plan -> Some (Par.Tls.run ~machine ~threads ~plan program env)
  | Engine.Domore (plan, config) ->
      Some (Xinv_domore.Domore.run ~config ?obs ~trace ~plan program env)
  | Engine.Domore_dup (plan, config) ->
      Some (Xinv_domore.Duplicated.run ~config ?obs ~plan program env)
  | Engine.Speccross { config; _ } ->
      Some (Xinv_speccross.Runtime.run ~config ?obs ~trace program env)

let simulate ?trace (r : Request.t) =
  let env = r.Request.workload.Wl.Workload.fresh_env r.Request.input in
  sim_engine ?trace r (resolve r env) env

(* ---- native backend ---- *)

let native_pool_size ~technique ~threads =
  match technique with
  | Sequential -> 0
  | Barrier | Domore_dup -> threads - 1
  | Domore | Speccross | Speccross_inject _ -> Stdlib.max 1 (threads - 1)
  | Doacross | Dswp | Inspector | Tls -> 0

let ndomore_config opts (c : Xinv_domore.Domore.config) =
  {
    (Nat.Ndomore.default_config ~workers:c.Xinv_domore.Domore.workers) with
    Nat.Ndomore.policy = c.Xinv_domore.Domore.policy;
    work = opts.work;
    grain = opts.grain;
    batch = opts.batch;
  }

let nspec_config opts (c : Xinv_speccross.Runtime.config) =
  let module R = Xinv_speccross.Runtime in
  {
    (Nat.Nspec.default_config ~workers:c.R.workers) with
    Nat.Nspec.sig_kind = c.R.sig_kind;
    checkpoint_every = c.R.checkpoint_every;
    spec_distance = c.R.spec_distance;
    mode_of = c.R.mode_of;
    inject_misspec = c.R.inject_misspec;
    work = opts.work;
    grain = opts.grain;
  }

(* One native attempt of one technique; raises on failure. *)
let run_native_once ~actx ~opts ~wd ~fault ?fr (r : Request.t) env =
  let wl = r.Request.workload and technique = r.Request.technique in
  let threads = r.Request.threads in
  if not (native_supported technique) then
    failwith
      (Printf.sprintf "%s has no native backend (simulator only)"
         (technique_name technique));
  let program = wl.Wl.Workload.program r.Request.input in
  let plan = Wl.Workload.plan_fn wl in
  let work = opts.work in
  let with_pool f =
    match opts.pool with
    | Some pool -> f pool
    | None -> Nat.Pool.with_pool ~workers:(native_pool_size ~technique ~threads) f
  in
  let barrier ?grain () =
    with_pool (fun pool ->
        Nat.Nbarrier.run ~pool ~wd ?fault ?fr ~work ?grain ~threads ~plan program
          env)
  in
  let engine = resolve_with ~actx r env in
  let nrun =
    match engine with
    | Engine.Sequential -> Nat.Nbarrier.run_seq ~work program env
    | Engine.Barrier -> barrier ~grain:opts.grain ()
    | Engine.Speccross { profitable = false; _ } -> barrier ()
    | Engine.Domore (plan, c) ->
        with_pool (fun pool ->
            Nat.Ndomore.run ~pool ~wd ?fault ?fr ~config:(ndomore_config opts c)
              ~plan program env)
    | Engine.Domore_dup (plan, c) ->
        with_pool (fun pool ->
            Nat.Ndomore.run_duplicated ~pool ~wd ?fault ?fr
              ~config:(ndomore_config opts c) ~plan program env)
    | Engine.Speccross { config; _ } ->
        with_pool (fun pool ->
            Nat.Nspec.run ~pool ~wd ?fault ?fr ~config:(nspec_config opts config)
              program env)
    | Engine.Doacross | Engine.Dswp | Engine.Inspector _ | Engine.Tls _ ->
        assert false (* rejected above, before any analysis *)
  in
  (nrun, engine_profile engine)

(* Runtime failures trigger degradation; environment-level errors and
   programming bugs do not. *)
let degradable = function
  | Out_of_memory | Stack_overflow | Assert_failure _ | Invalid_argument _ ->
      false
  | _ -> true

let degrade_chain = function
  | Sequential -> [ Sequential ]
  | Barrier -> [ Barrier; Sequential ]
  | Domore -> [ Domore; Domore_dup; Barrier; Sequential ]
  | Domore_dup -> [ Domore_dup; Barrier; Sequential ]
  | (Speccross | Speccross_inject _) as t -> [ t; Barrier; Sequential ]
  | (Doacross | Dswp | Inspector | Tls) as t -> [ t ]

let failure_reason = function
  | Nat.Fault.Injected { kind; domain; site } ->
      Printf.sprintf "injected %s at domain %d, site %d"
        (Nat.Fault.kind_name kind) domain site
  | Nat.Watchdog.Stalled { role; waiting_for; waited_ns } ->
      Printf.sprintf "%s stalled %.1f ms waiting for %s" role (waited_ns /. 1e6)
        waiting_for
  | Nat.Watchdog.Cancelled role -> Printf.sprintf "%s cancelled" role
  | e -> Printexc.to_string e

(* Machine-readable one-liner for postmortem [event:] headers. *)
let event_line = function
  | Nat.Fault.Injected { kind; domain; site } ->
      Printf.sprintf "fault_injected kind=%s domain=%d site=%d"
        (Nat.Fault.kind_name kind) domain site
  | Nat.Watchdog.Stalled { role; waiting_for; waited_ns } ->
      Printf.sprintf "run_stalled role=%S waiting_for=%S waited_ns=%.0f" role
        waiting_for waited_ns
  | Nat.Watchdog.Cancelled role -> Printf.sprintf "run_cancelled role=%S" role
  | e -> Printf.sprintf "exception %S" (Printexc.to_string e)

let record_event obs ev =
  match obs with
  | None -> ()
  | Some r -> Xinv_obs.Recorder.record r ~at:0. ~tid:0 ev

let bump_counter obs name v =
  match obs with
  | None -> ()
  | Some r ->
      if v > 0 then
        let m = Xinv_obs.Recorder.metrics r in
        Xinv_obs.Metrics.add (Xinv_obs.Metrics.counter m name) v

(* Flight-recorder marks on ring 0 encode where the run's configuration
   came from, so a postmortem names the policy source without the obs
   recorder attached. *)
let source_code source =
  match source with
  | "fixed" -> 0
  | "cached" -> 1
  | "searched" -> 2
  | "default" -> 3
  | _ -> 4 (* adaptive:* *)

let run_native ~actx ~opts ~source ~baseline (r : Request.t) =
  let wl = r.Request.workload and input = r.Request.input in
  let obs = r.Request.obs and threads = r.Request.threads in
  let program = wl.Wl.Workload.program input in
  (* Wall-clock baseline and bit-exact reference memory in one pass, ahead
     of the engine. *)
  let seq =
    if baseline then
      let seq_env = wl.Wl.Workload.fresh_env input in
      let seq_run = Nat.Nbarrier.run_seq ~work:opts.work program seq_env in
      Some (Wall_ns seq_run.Nat.Nrun.wall_ns, seq_env)
    else None
  in
  (* The degradation chain shares one overall deadline and one armed fault
     (which fires at most once across every attempt). *)
  let overall_deadline =
    match opts.deadline_ms with
    | None -> None
    | Some ms -> Some (Unix.gettimeofday () +. (ms /. 1e3))
  in
  let wait_timeout_ms =
    match (opts.wait_timeout_ms, opts.deadline_ms, opts.fault) with
    | Some ms, _, _ -> Some ms
    | None, Some dl, _ -> Some (Float.min dl 5000.)
    | None, None, Some _ ->
        (* An armed fault without explicit bounds must still terminate. *)
        Some 5000.
    | None, None, None -> None
  in
  let fault =
    match opts.fault with
    | None -> None
    | Some spec ->
        let sites = Ir.Program.invocations program in
        Some (Nat.Fault.resolve ~domains:threads ~sites spec)
  in
  let stalls_total = ref 0 in
  let degraded = ref [] in
  (* Flight recording: one fresh set of rings per attempt, so a postmortem
     never mixes events across degradation levels; the last attempt's
     recording is surfaced in the outcome. *)
  let want_flight = opts.flight || opts.postmortem_dir <> None in
  let flight_domains = Stdlib.max 2 threads in
  let last_flight = ref None in
  let postmortems = ref [] in
  let attempt_no = ref 0 in
  let write_postmortem ~tech ~next e fr =
    match opts.postmortem_dir with
    | None -> ()
    | Some dir -> (
        let base =
          Printf.sprintf "%s-%s-attempt%d" wl.Wl.Workload.name
            (technique_name tech) !attempt_no
        in
        let counters =
          Option.map
            (fun r -> Xinv_obs.Metrics.counters (Xinv_obs.Recorder.metrics r))
            obs
        in
        match
          Xinv_obs.Postmortem.write ~dir ~base ~workload:wl.Wl.Workload.name
            ~technique:(technique_name tech) ~attempt:!attempt_no
            ~reason:(failure_reason e) ~event:(event_line e)
            ?degraded_to:(Option.map technique_name next)
            ?counters ?flight:fr ()
        with
        | txt, _ -> postmortems := !postmortems @ [ txt ]
        | exception _ ->
            (* Best-effort: an unwritable dump must never mask the failure. *)
            ())
  in
  let rec attempt = function
    | [] -> assert false
    | tech :: rest -> (
        let remaining_ms =
          match overall_deadline with
          | None -> None
          | Some at -> Some ((at -. Unix.gettimeofday ()) *. 1e3)
        in
        (match remaining_ms with
        | Some ms when ms <= 0. ->
            raise
              (Nat.Watchdog.Stalled
                 { role = "facade"; waiting_for = "run deadline";
                   waited_ns = Option.get opts.deadline_ms *. 1e6 })
        | _ -> ());
        let wd =
          Nat.Watchdog.create ?deadline_ms:remaining_ms ?wait_timeout_ms ()
        in
        (* Hand the attempt's watchdog to the caller (the serve daemon's
           client-disconnect cancellation handle, like [on_flight] for the
           recorder) before any domain starts waiting on it. *)
        (match opts.on_watchdog with Some f -> f wd | None -> ());
        let env = wl.Wl.Workload.fresh_env input in
        incr attempt_no;
        let fr =
          if not want_flight then None
          else
            Some (Xinv_obs.Flight.create ~domains:flight_domains ())
        in
        last_flight := fr;
        (match fr with
        | Some f -> Xinv_obs.Flight.mark f ~domain:0 (source_code source)
        | None -> ());
        (match (opts.on_flight, fr) with
        | Some f, Some flight -> f flight
        | _ -> ());
        let finish (nrun, profile) =
          stalls_total := !stalls_total + Nat.Watchdog.stalls wd;
          (tech, nrun, profile, env)
        in
        match
          run_native_once ~actx ~opts ~wd ~fault ?fr
            { r with Request.technique = tech }
            env
        with
        | result -> finish result
        | exception e when rest <> [] && opts.degrade && degradable e ->
            stalls_total := !stalls_total + Nat.Watchdog.stalls wd;
            (match e with
            | Nat.Watchdog.Stalled { role; waiting_for; waited_ns } ->
                record_event obs
                  (Xinv_obs.Event.Run_stalled { role; waiting_for; waited_ns })
            | _ -> ());
            let next = List.hd rest in
            write_postmortem ~tech ~next:(Some next) e fr;
            let reason = failure_reason e in
            degraded :=
              !degraded @ [ { d_from = tech; d_to = next; d_reason = reason } ];
            record_event obs
              (Xinv_obs.Event.Degraded
                 { from_ = technique_name tech; to_ = technique_name next; reason });
            attempt rest
        | exception e ->
            stalls_total := !stalls_total + Nat.Watchdog.stalls wd;
            write_postmortem ~tech ~next:None e fr;
            raise e)
  in
  let executed, nrun, nprofile, env =
    attempt (degrade_chain r.Request.technique)
  in
  (if Nat.Fault.fired fault then
     match fault with
     | Some f ->
         let kind, domain, site = Nat.Fault.info f in
         record_event obs
           (Xinv_obs.Event.Fault_injected
              { kind = Nat.Fault.kind_name kind; domain; site })
     | None -> ());
  bump_counter obs "fault.injected" (if Nat.Fault.fired fault then 1 else 0);
  bump_counter obs "watchdog.stall" !stalls_total;
  bump_counter obs "degrade.level" (List.length !degraded);
  (match executed with
  | Domore | Domore_dup ->
      bump_counter obs "domore.tasks_dispatched" nrun.Nat.Nrun.tasks;
      bump_counter obs "domore.sync_conds_forwarded" nrun.Nat.Nrun.conds
  | Speccross | Speccross_inject _ ->
      bump_counter obs "speccross.epochs_committed" nrun.Nat.Nrun.invocations;
      bump_counter obs "speccross.signature_checks" nrun.Nat.Nrun.checks;
      bump_counter obs "speccross.misspeculations" nrun.Nat.Nrun.misspecs;
      bump_counter obs "barrier.crossings" nrun.Nat.Nrun.barrier_episodes
  | _ -> bump_counter obs "barrier.crossings" nrun.Nat.Nrun.barrier_episodes);
  (nrun, seq, nprofile, env, executed, !degraded, !last_flight, !postmortems)

(* ---- unified entry point ---- *)

(* The sequential baseline is a result only some requests consume: [verify]
   diffs the run's memory against it, and the [`Adaptive] controller weighs
   the run's cost against it.  An execution that ran [Sequential] (asked
   for, or degraded to) is its own baseline: its cost is the sequential
   cost and its memory the reference. *)
let outcome ~actx ~source ~verify ~executed ~cost ~speedup env seq =
  let seq_cost, speedup, mismatches =
    match (executed, seq) with
    | Sequential, _ -> (Some cost, Some 1.0, [])
    | _, None -> (None, None, [])
    | _, Some (seq_cost, seq_env) ->
        ( Some seq_cost,
          Some (speedup (cost_value seq_cost)),
          if verify then Ir.Memory.diff seq_env.Ir.Env.mem env.Ir.Env.mem
          else [] )
  in
  {
    technique = executed;
    cost;
    seq_cost;
    speedup;
    verified = mismatches = [];
    mismatches;
    profile = None;
    run = None;
    nrun = None;
    degraded = [];
    analysis_ns = actx.a_ns;
    cache_hits = fst (cache_stats actx);
    cache_misses = snd (cache_stats actx);
    flight = None;
    postmortems = [];
    policy_source = source;
  }

(* One fully-resolved execution: every knob pinned, no policy lookup.
   [baseline] asks for the sequential baseline; a [Sequential] request
   never runs a second one. *)
let exec ~actx ~source ~baseline (r : Request.t) =
  let technique = r.Request.technique and verify = r.Request.verify in
  let baseline = baseline && technique <> Sequential in
  assert (r.Request.threads > 0);
  match r.Request.backend with
  | `Sim _ ->
      let wl = r.Request.workload in
      let program = wl.Wl.Workload.program r.Request.input in
      let seq =
        if baseline then
          let seq_env = wl.Wl.Workload.fresh_env r.Request.input in
          Some (Sim_cycles (Ir.Seq_interp.run program seq_env), seq_env)
        else None
      in
      let env = wl.Wl.Workload.fresh_env r.Request.input in
      let engine = resolve_with ~actx r env in
      let run = sim_engine r engine env in
      let cost, speedup =
        match run with
        | None ->
            (* [Sequential]: interpreting is the execution *)
            (Ir.Seq_interp.run program env, fun _ -> 1.0)
        | Some run ->
            (run.Par.Run.makespan, fun seq_cost -> Par.Run.speedup ~seq_cost run)
      in
      {
        (outcome ~actx ~source ~verify ~executed:technique
           ~cost:(Sim_cycles cost) ~speedup env seq)
        with
        profile = engine_profile engine;
        run;
      }
  | `Native opts ->
      let nrun, seq, profile, env, executed, degraded, flight, postmortems =
        run_native ~actx ~opts ~source ~baseline r
      in
      {
        (outcome ~actx ~source ~verify ~executed
           ~cost:(Wall_ns nrun.Nat.Nrun.wall_ns)
           ~speedup:(fun seq_wall_ns -> Nat.Nrun.speedup ~seq_wall_ns nrun)
           env seq)
        with
        profile;
        nrun = Some nrun;
        degraded;
        flight;
        postmortems;
      }

let run_request (r : Request.t) =
  assert (r.Request.threads > 0);
  let obs = r.Request.obs in
  let wl = r.Request.workload in
  let input = r.Request.input in
  let actx = analysis_ctx ?obs r.Request.cache r.Request.cache_dir in
  (* Verification and the adaptive controller are the baseline's only
     consumers; without them a request executes once. *)
  let baseline =
    r.Request.verify
    || match r.Request.policy with `Adaptive _ -> true | _ -> false
  in
  let exec ~source r = exec ~actx ~source ~baseline r in
  let lookup_tuned () =
    match actx.a_cache with
    | None -> None
    | Some c ->
        timed actx (fun () ->
            Cache.Analysis.cached_policy c
              (wl.Wl.Workload.program input)
              (wl.Wl.Workload.fresh_env input))
  in
  match r.Request.policy with
  | `Fixed -> exec ~source:"fixed" r
  | `Reified (p, source) ->
      bump_counter obs ("policy.source." ^ source) 1;
      record_event obs
        (Xinv_obs.Event.Policy_applied
           { source; policy = Cache.Policy.to_string p });
      exec ~source (Request.apply_policy p r)
  | `Auto -> (
      match lookup_tuned () with
      | Some tuned ->
          let p = tuned.Cache.Policy.policy in
          bump_counter obs "policy.source.cached" 1;
          record_event obs
            (Xinv_obs.Event.Policy_applied
               { source = "cached"; policy = Cache.Policy.to_string p });
          exec ~source:"cached" (Request.apply_policy p r)
      | None ->
          bump_counter obs "policy.source.default" 1;
          record_event obs
            (Xinv_obs.Event.Policy_applied
               {
                 source = "default";
                 policy = technique_name r.Request.technique;
               });
          exec ~source:"default" r)
  | `Adaptive ctl ->
      let o =
        match ctl.a_phase with
        | `Sequential ->
            exec ~source:"adaptive:sequential"
              {
                r with
                Request.technique = Sequential;
                threads = 1;
                sig_kind = Cache.Policy.default.sig_kind;
                spec_distance = None;
                policy = `Fixed;
              }
        | `Probing | `Candidate -> (
            match lookup_tuned () with
            | Some tuned ->
                exec ~source:"adaptive:cached"
                  (Request.apply_policy tuned.Cache.Policy.policy r)
            | None -> exec ~source:"adaptive:default" r)
      in
      (match (ctl.a_phase, o.seq_cost) with
      | `Sequential, _ -> ()
      | (`Probing | `Candidate), None ->
          assert false (* an adaptive request always measures its baseline *)
      | ((`Probing | `Candidate) as phase), Some seq_cost -> (
          let from_phase =
            match phase with `Probing -> "probe" | `Candidate -> "candidate"
          in
          match
            adaptive_note ctl ~cand_ns:(cost_value o.cost)
              ~seq_ns:(cost_value seq_cost)
          with
          | `Keep -> ()
          | `Switch ->
              let ratio = ctl.a_cand_ns /. Stdlib.max 1. ctl.a_seq_ns in
              bump_counter obs "tune.switch" 1;
              record_event obs
                (Xinv_obs.Event.Tune_switch
                   {
                     from_ =
                       Printf.sprintf "%s:%s" from_phase
                         (technique_name o.technique);
                     to_ = "sequential";
                     reason =
                       Printf.sprintf "candidate at %.2fx of sequential" ratio;
                   })));
      o

let report ?obs o =
  match (o.run, o.nrun) with
  | Some r, _ -> Some (Par.Run.report r)
  | None, Some nr ->
      let metrics = Option.map Xinv_obs.Recorder.metrics obs in
      let counters = Option.map Xinv_obs.Metrics.counters metrics
      and gauges = Option.map Xinv_obs.Metrics.gauges metrics
      and blocked = nr.Nat.Nrun.stalls in
      Some
        (match o.flight with
        | Some fl -> Xinv_obs.Report.of_flight ~wall_ns:nr.Nat.Nrun.wall_ns ~blocked ?counters ?gauges fl
        | None ->
            Xinv_obs.Report.build ~backend:"native" ~clock:Xinv_obs.Flight.Ns
              ~makespan:nr.Nat.Nrun.wall_ns
              ~tracks:(Array.init nr.Nat.Nrun.domains (Printf.sprintf "domain %d"))
              ~blocked ?counters ?gauges [])
  | None, None -> None
