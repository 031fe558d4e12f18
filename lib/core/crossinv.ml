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
  baseline_reused : bool;
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
  | Par.Intra.Doany ->
      invalid_arg
        (Printf.sprintf "Crossinv.spec_mode_of_plan: %s's %s is DOANY" wl.Wl.Workload.name
           label)

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

(* ---- applicability: every rule in one check ----

   An engine on the backend; with [threads], 2 contexts for DOMORE and
   SPECCROSS; the MTCG plan; for SPECCROSS, no Spec-DOALL or DOANY loop in
   the plan its engine runs ([spec_mode_of_plan]) and no sequential region
   that writes memory.  [env] is forced only for MTCG. *)
let check ~mtcg ~backend ?threads technique (wl : Wl.Workload.t) input env =
  let program = wl.Wl.Workload.program input in
  if backend = `Native && not (native_supported technique) then
    Error
      (Printf.sprintf "%s has no native backend (simulator only)"
         (technique_name technique))
  else
    match technique with
    | (Domore | Speccross | Speccross_inject _)
      when (match threads with Some n -> n < 2 | None -> false) ->
        Error "needs a scheduler (or checker) and at least one worker: 2 contexts"
    | Sequential | Barrier | Doacross | Dswp -> Ok None
    | Inspector | Tls | Domore | Domore_dup -> (
        match mtcg program (env ()) with
        | Ir.Mtcg.Plan plan -> Ok (Some plan)
        | Ir.Mtcg.Inapplicable reason -> Error reason)
    | Speccross | Speccross_inject _ ->
        let planned t =
          List.exists
            (fun (il : Ir.Program.inner) ->
              Wl.Workload.technique_of wl il.Ir.Program.ilabel = t)
            program.Ir.Program.inners
        in
        if planned Par.Intra.Spec_doall then
          Error "inner loop requires speculative intra-invocation parallelization"
        else if planned Par.Intra.Doany then
          Error "inner loop requires lock-protected (DOANY) intra-invocation parallelization"
        else Result.map (fun () -> None) (Par.Plan.speccross_sequential_regions program)

let applicable ?(backend = `Sim) ?threads technique (wl : Wl.Workload.t) =
  Result.map ignore
    (check ~mtcg:Ir.Mtcg.generate ~backend ?threads technique wl Wl.Workload.Ref
       (fun () -> wl.Wl.Workload.fresh_env Wl.Workload.Ref))

let refusal ~backend technique (wl : Wl.Workload.t) reason =
  Printf.sprintf "%s is inapplicable to %s on the %s backend: %s"
    (technique_name technique) wl.Wl.Workload.name
    (match backend with `Sim -> "sim" | `Native -> "native")
    reason

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

type policy = [ `Fixed | `Auto ]

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

(* The engine clamps the distance up to the worker count.  With no profiled
   conflict the lead is still bounded (a few invocations) so threads stay
   loosely coupled and the checker's comparison windows stay small. *)
let spec_distance override (prof : Xinv_speccross.Profiler.t) ~workers =
  match (override, prof.Xinv_speccross.Profiler.min_task_distance) with
  | Some d, _ | None, Some d -> d
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

(* [check] on the request's own input and [env]: its MTCG plan, which every
   attempt then runs, or the documented refusal. *)
let checked_plan ~actx (r : Request.t) env =
  let backend = match r.Request.backend with `Sim _ -> `Sim | `Native _ -> `Native in
  let wl = r.Request.workload and technique = r.Request.technique in
  let mtcg p e = timed actx (fun () -> Ir.Mtcg.generate p e) in
  match
    check ~mtcg ~backend ~threads:r.Request.threads technique wl r.Request.input
      (fun () -> env)
  with
  | Ok plan -> plan
  | Error reason -> failwith (refusal ~backend technique wl reason)

(* [plan] is [checked_plan]'s: [Some] for every MTCG technique. *)
let resolve_with ~actx ~plan (r : Request.t) env =
  let wl = r.Request.workload in
  let machine = sim_machine r in
  let domore ~workers =
    let policy =
      if wl.Wl.Workload.mem_partition then Xinv_domore.Policy.Mem_partition
      else Xinv_domore.Policy.Round_robin
    in
    (Option.get plan, { Xinv_domore.Domore.machine; policy; workers })
  in
  let workers = r.Request.threads - 1 in
  match r.Request.technique with
  | Sequential -> Engine.Sequential
  | Barrier -> Engine.Barrier
  | Doacross -> Engine.Doacross
  | Dswp -> Engine.Dswp
  | Inspector -> Engine.Inspector (Option.get plan)
  | Tls -> Engine.Tls (Option.get plan)
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
  resolve_with ~actx ~plan:(checked_plan ~actx r env) r env

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
      Some (Par.Inspector.run ~machine ?obs ~threads ~plan program env)
  | Engine.Tls plan -> Some (Par.Tls.run ~machine ?obs ~threads ~plan program env)
  | Engine.Domore (plan, config) ->
      Some (Xinv_domore.Domore.run ~config ?obs ~trace ~plan program env)
  | Engine.Domore_dup (plan, config) ->
      Some (Xinv_domore.Domore.run_duplicated ~config ?obs ~plan program env)
  | Engine.Speccross { config; _ } ->
      Some (Xinv_speccross.Runtime.run ~config ?obs ~trace program env)

let simulate ?trace (r : Request.t) =
  let env = r.Request.workload.Wl.Workload.fresh_env r.Request.input in
  sim_engine ?trace r (resolve r env) env

(* ---- native backend ---- *)

let native_pool_size ~technique ~threads =
  match technique with
  | Sequential -> 0
  | Barrier | Domore | Domore_dup | Speccross | Speccross_inject _ -> threads - 1
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
let run_native_once ~actx ~opts ~wd ~fault ?fr ~plan (r : Request.t) env =
  let wl = r.Request.workload and technique = r.Request.technique in
  let threads = r.Request.threads in
  let program = wl.Wl.Workload.program r.Request.input in
  let work = opts.work in
  let with_pool f =
    match opts.pool with
    | Some pool -> f pool
    | None -> Nat.Pool.with_pool ~workers:(native_pool_size ~technique ~threads) f
  in
  let barrier ?grain () =
    with_pool (fun pool ->
        Nat.Nbarrier.run ~pool ~wd ?fault ?fr ~work ?grain ~threads
          ~plan:(Wl.Workload.plan_fn wl) program env)
  in
  let engine = resolve_with ~actx ~plan r env in
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
        assert false (* refused by [check] before any attempt *)
  in
  (nrun, engine_profile engine)

(* Runtime failures trigger degradation; environment-level errors,
   programming bugs and a caller's cancellation do not.  Inside a cohort
   [Cancelled] is always secondary — {!Nat.Pool.run} re-raises the root
   cause — so one that escapes the engine is the caller's, and final. *)
let degradable = function
  | Out_of_memory | Stack_overflow | Assert_failure _ | Invalid_argument _
  | Nat.Watchdog.Cancelled _ ->
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
  match source with "fixed" -> 0 | "cached" -> 1 | _ (* "default" *) -> 3

(* [env], the one [check] ran on, is the first attempt's. *)
let run_native ~actx ~opts ~source ~plan (r : Request.t) env =
  let wl = r.Request.workload and input = r.Request.input in
  let obs = r.Request.obs and threads = r.Request.threads in
  let program = wl.Wl.Workload.program input in
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
        let env = if !attempt_no = 0 then env else wl.Wl.Workload.fresh_env input in
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
          run_native_once ~actx ~opts ~wd ~fault ?fr ~plan
            { r with Request.technique = tech }
            env
        with
        | result -> finish result
        | exception e when rest <> [] && opts.degrade && degradable e ->
            stalls_total := !stalls_total + Nat.Watchdog.stalls wd;
            let next = List.hd rest in
            write_postmortem ~tech ~next:(Some next) e fr;
            degraded :=
              !degraded
              @ [ { d_from = tech; d_to = next; d_reason = failure_reason e } ];
            attempt rest
        | exception e ->
            stalls_total := !stalls_total + Nat.Watchdog.stalls wd;
            write_postmortem ~tech ~next:None e fr;
            raise e)
  in
  let executed, nrun, nprofile, env =
    attempt (degrade_chain r.Request.technique)
  in
  bump_counter obs "fault.injected" (if Nat.Fault.fired fault then 1 else 0);
  bump_counter obs "watchdog.stall" !stalls_total;
  bump_counter obs "degrade.level" (List.length !degraded);
  (nrun, nprofile, env, executed, !degraded, !last_flight, !postmortems)

(* ---- the sequential reference ----

   A registry workload's program and environment are pure functions of its
   input, so its sequential execution is too.  The process keeps, per
   (workload, input), a frozen copy of the final memory, and per backend
   and work model the cost of the latest sequential execution.
   Verification diffs against that copy instead of running the program
   again.  The memory is shared by every backend and work model: both
   backends execute the same statements in the same order.  Only records
   [Registry] returns are kept; any other workload (a test's [Synth], a
   derived record) runs its baseline every time. *)

module Reference = struct
  type entry = {
    mem : Ir.Memory.frozen;
    mutable costs : ([ `Sim | `Native of Nat.Work.t ] * cost) list;
  }

  let table : (string * Wl.Workload.input, entry) Hashtbl.t = Hashtbl.create 16
  let mu = Mutex.create ()

  let key (r : Request.t) =
    let wl = r.Request.workload in
    if List.memq wl (Wl.Registry.all ()) then
      Some
        ( (wl.Wl.Workload.name, r.Request.input),
          match r.Request.backend with `Sim _ -> `Sim | `Native o -> `Native o.work )
    else None

  let find (program, machine) =
    Mutex.protect mu (fun () ->
        match Hashtbl.find_opt table program with
        | None -> None
        | Some e -> Option.map (fun c -> (c, e.mem)) (List.assoc_opt machine e.costs))

  (* [mem] is copied only for a (workload, input) seen for the first time. *)
  let store r cost mem =
    Option.iter
      (fun (program, machine) ->
        Mutex.protect mu (fun () ->
            match Hashtbl.find_opt table program with
            | Some e -> e.costs <- (machine, cost) :: List.remove_assoc machine e.costs
            | None ->
                Hashtbl.replace table program
                  { mem = Ir.Memory.freeze mem; costs = [ (machine, cost) ] }))
      (key r)
end

(* The request's sequential cost, the check of a memory against the
   reference, and whether they came from the memo.  A miss runs one
   baseline on its own environment (the simulator's sequential
   interpreter, or one native sequential run) and stores it. *)
let reference (r : Request.t) =
  match Option.bind (Reference.key r) Reference.find with
  | Some (cost, frozen) -> (cost, Ir.Memory.diff_frozen frozen, true)
  | None ->
      let wl = r.Request.workload and input = r.Request.input in
      let program = wl.Wl.Workload.program input in
      let env = wl.Wl.Workload.fresh_env input in
      let cost =
        match r.Request.backend with
        | `Sim _ -> Sim_cycles (Ir.Seq_interp.run program env)
        | `Native o -> Wall_ns (Nat.Nbarrier.run_seq ~work:o.work program env).Nat.Nrun.wall_ns
      in
      Reference.store r cost env.Ir.Env.mem;
      (cost, Ir.Memory.diff env.Ir.Env.mem, false)

let reference_diff r mem =
  let _, check, reused = reference r in
  (check mem, reused)

(* ---- unified entry point ---- *)

(* The sequential reference is a result only [verify] consumes: it diffs
   the run's memory against it.  An execution that ran [Sequential] (asked
   for, or degraded to) is its own baseline: its cost is the sequential
   cost and its memory the reference. *)
let outcome ~actx ~source ~executed ~cost ~speedup env seq =
  let seq_cost, speedup, mismatches, baseline_reused =
    match (executed, seq) with
    | Sequential, _ -> (Some cost, Some 1.0, [], false)
    | _, None -> (None, None, [], false)
    | _, Some (seq_cost, check, reused) ->
        (Some seq_cost, Some (speedup (cost_value seq_cost)), check env.Ir.Env.mem, reused)
  in
  {
    technique = executed;
    cost;
    seq_cost;
    baseline_reused;
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

(* One fully-resolved execution: every knob pinned, no policy lookup.  The
   applicability check comes first, so a refused request runs nothing.
   Verification takes the sequential reference, ahead of the engine;
   without it a request executes once, and a [Sequential] request never
   runs a second one.  A [Sequential] request's execution refreshes the
   cost its key stores. *)
let exec ~actx ~source (r : Request.t) =
  let technique = r.Request.technique and wl = r.Request.workload in
  let input = r.Request.input in
  let program = wl.Wl.Workload.program input in
  assert (r.Request.threads > 0);
  let env = wl.Wl.Workload.fresh_env input in
  let plan = checked_plan ~actx r env in
  let seq =
    if r.Request.verify && technique <> Sequential then Some (reference r) else None
  in
  let o =
    match r.Request.backend with
    | `Sim _ ->
        let engine = resolve_with ~actx ~plan r env in
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
          (outcome ~actx ~source ~executed:technique
             ~cost:(Sim_cycles cost) ~speedup env seq)
          with
          profile = engine_profile engine;
          run;
        }
    | `Native opts ->
        let nrun, profile, env, executed, degraded, flight, postmortems =
          run_native ~actx ~opts ~source ~plan r env
        in
        {
          (outcome ~actx ~source ~executed
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
  in
  (* A [Sequential] request has one attempt, on [env]. *)
  if technique = Sequential then Reference.store r o.cost env.Ir.Env.mem;
  o

(* ---- run counters ----

   Engines count a run's totals once, in their result record; this names
   them, with one meaning on either backend.  [run_request] publishes
   them and [report] lists them.  The simulator's [Run.checks] holds
   DOMORE's forwarded conditions as well as SPECCROSS's checking
   requests. *)
let run_counters o =
  let named ~tasks ~invocations ~conds ~checks ~misspecs ~barriers ~checkpoints ~redone
      ~recovery ~compared =
    match o.technique with
    | Domore -> [ ("domore.tasks_dispatched", tasks); ("domore.sync_conds_forwarded", conds) ]
    | Domore_dup -> [ ("domore.sync_conds_forwarded", conds) ]
    | Speccross | Speccross_inject _ ->
        [
          ("speccross.epochs_committed", invocations);
          ("speccross.signature_checks", checks);
          ("speccross.signatures_compared", compared);
          ("speccross.misspeculations", misspecs);
          ("speccross.epochs_redone", redone);
          ("speccross.recovery_time", recovery);
          ("speccross.checkpoints", checkpoints);
          ("barrier.crossings", barriers);
        ]
    | _ -> [ ("barrier.crossings", barriers) ]
  in
  match (o.run, o.nrun) with
  | Some r, _ ->
      Par.Run.(
        named ~tasks:r.tasks ~invocations:r.invocations ~conds:r.checks ~checks:r.checks
          ~misspecs:r.misspecs ~barriers:r.barrier_episodes ~checkpoints:r.checkpoints
          ~redone:r.epochs_redone ~recovery:r.recovery_time ~compared:r.signatures_compared)
  | None, Some n ->
      Nat.Nrun.(
        named ~tasks:n.tasks ~invocations:n.invocations ~conds:n.conds ~checks:n.checks
          ~misspecs:n.misspecs ~barriers:n.barrier_episodes ~checkpoints:n.checkpoints
          ~redone:n.epochs_redone ~recovery:n.recovery_time ~compared:n.signatures_compared)
  | None, None -> []

let run_request (r : Request.t) =
  assert (r.Request.threads > 0);
  let obs = r.Request.obs in
  let wl = r.Request.workload in
  let input = r.Request.input in
  let actx = analysis_ctx ?obs r.Request.cache r.Request.cache_dir in
  let o =
    match r.Request.policy with
    | `Fixed -> exec ~actx ~source:"fixed" r
    | `Auto -> (
        let tuned =
          match actx.a_cache with
          | None -> None
          | Some c ->
              timed actx (fun () ->
                  Cache.Analysis.cached_policy c
                    (wl.Wl.Workload.program input)
                    (wl.Wl.Workload.fresh_env input))
        in
        match tuned with
        | Some tuned ->
            bump_counter obs "policy.source.cached" 1;
            exec ~actx ~source:"cached"
              (Request.apply_policy tuned.Cache.Policy.policy r)
        | None ->
            bump_counter obs "policy.source.default" 1;
            exec ~actx ~source:"default" r)
  in
  List.iter (fun (name, v) -> bump_counter obs name v) (run_counters o);
  o

(* A process's first native run is timed cold: pool start-up, first-touch
   page faults and code warm-up all land on it.  Two unverified sequential
   runs take them; after only one, a tune's first trial still read
   1.6-3.5x its sequential baseline (SYMM train, 2-vCPU VM).  They carry
   no fault, recorder, flight or postmortem. *)
let warm_up (r : Request.t) =
  match r.Request.backend with
  | `Sim _ -> ()
  | `Native n ->
      let quiet =
        Request.make
          ~backend:(`Native { native_defaults with work = n.work; pool = n.pool })
          ~input:r.Request.input ~verify:false ~cache:r.Request.cache
          ?cache_dir:r.Request.cache_dir ~technique:Sequential ~threads:1
          r.Request.workload
      in
      for _ = 1 to 2 do
        ignore (run_request quiet)
      done

(* The run's own counters, then the recorder's others (policy source,
   faults, cache, ...). *)
let report ?obs o =
  let counters recorder =
    let run = run_counters o in
    let recorded =
      match recorder with
      | Some r -> Xinv_obs.Metrics.counters (Xinv_obs.Recorder.metrics r)
      | None -> []
    in
    run @ List.filter (fun (k, _) -> not (List.mem_assoc k run)) recorded
  in
  match (o.run, o.nrun) with
  | Some r, _ -> Some (Par.Run.report ~counters:(counters r.Par.Run.recorder) r)
  | None, Some nr ->
      let counters = counters obs
      and gauges = Option.map Xinv_obs.Metrics.gauges (Option.map Xinv_obs.Recorder.metrics obs)
      and blocked = nr.Nat.Nrun.stalls in
      Some
        (match o.flight with
        | Some fl -> Xinv_obs.Report.of_flight ~wall_ns:nr.Nat.Nrun.wall_ns ~blocked ~counters ?gauges fl
        | None ->
            Xinv_obs.Report.build ~backend:"native" ~clock:Xinv_obs.Flight.Ns
              ~makespan:nr.Nat.Nrun.wall_ns
              ~tracks:(Array.init nr.Nat.Nrun.domains (Printf.sprintf "domain %d"))
              ~blocked ~counters ?gauges [])
  | None, None -> None
