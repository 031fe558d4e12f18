(** Public facade: run a workload under any of the parallelization systems
    this library reproduces — on a simulated multicore or on real OCaml 5
    domains — and compare against sequential execution.

    Quickstart:
    {[
      let wl = Xinv_workloads.Registry.find "CG" in
      (* simulated machine (default backend) *)
      let o =
        Crossinv.run_request
          (Crossinv.Request.make ~technique:Crossinv.Domore ~threads:8 wl)
      in
      (* real domains, with robustness bounds *)
      let o' =
        Crossinv.run_request
          (Crossinv.Request.make
             ~backend:
               (`Native { Crossinv.native_defaults with deadline_ms = Some 60_000. })
             ~technique:Crossinv.Domore ~threads:4 wl)
      in
      (* verification is on by default, so both runs measure a baseline *)
      Format.printf "sim %.2fx / native %.2fx, verified: %b@."
        (Option.get o.Crossinv.speedup)
        (Option.get o'.Crossinv.speedup)
        o'.Crossinv.verified
    ]} *)

type technique =
  | Sequential
  | Barrier  (** per-invocation parallelization (Table 5.1 plan) + pthread barriers *)
  | Doacross
  | Dswp
  | Inspector  (** inspector-executor (§2.2): wavefront scheduling *)
  | Tls  (** thread-level speculation (§2.2): in-order-commit speculation *)
  | Domore  (** Chapter 3: scheduler/worker runtime engine *)
  | Domore_dup  (** §3.4: duplicated scheduler, no barriers *)
  | Speccross  (** Chapter 4: speculative barriers *)
  | Speccross_inject of int
      (** SPECCROSS with one forced misspeculation at the given epoch *)

val technique_name : technique -> string

val technique_of_string : string -> technique option
(** Inverse of {!technique_name} (plus a few short aliases):
    [technique_of_string (technique_name t) = Some t] for every [t]. *)

(** {1 The unified entry point} *)

type cost =
  | Sim_cycles of float  (** virtual cycles on the simulated machine *)
  | Wall_ns of float  (** wall-clock nanoseconds on real domains *)

val cost_value : cost -> float
val cost_to_string : cost -> string

type native_opts = {
  work : Xinv_native.Work.t;
      (** calibrated spinning per simulated cost unit; [Off] runs raw ops *)
  pool : Xinv_native.Pool.t option;
      (** reuse an existing domain pool; one is spun up per run otherwise *)
  fault : Xinv_native.Fault.spec option;  (** armed fault, at most one firing *)
  deadline_ms : float option;  (** overall run deadline, degradation included *)
  wait_timeout_ms : float option;
      (** per-wait bound; defaults to [min deadline 5000] when a deadline is
          set, 5000 when only a fault is armed, unbounded otherwise *)
  degrade : bool;  (** retry failed runs under weaker techniques (default) *)
  grain : int;
      (** iterations dispatched/distributed as one chunk (barrier
          block-cyclic blocks, DOMORE chunk frames, SPECCROSS speculative
          blocks).  Default {!Xinv_cache.Policy.default}'s, one:
          per-iteration protocols, bit-identical to the simulator's
          dispatch. *)
  batch : int;
      (** native write-combining factor: words per {!Xinv_native.Spsc.Batch}
          publish in the DOMORE scheduler, owned iterations per
          completion-cell publish in the duplicated variant.  Default
          {!Xinv_cache.Policy.default}'s; 1 publishes per word/iteration
          like the pre-batching protocol. *)
  flight : bool;
      (** attach a {!Xinv_obs.Flight} recorder to every attempt (default
          off).  Implied by [postmortem_dir]. *)
  postmortem_dir : string option;
      (** when set, every failed attempt (injected fault, watchdog stall or
          cancellation, worker exception — whether it degrades or escapes)
          dumps a text postmortem plus a Perfetto trace of its flight
          recording into this directory; paths are surfaced in
          {!outcome.postmortems} *)
  on_flight : (Xinv_obs.Flight.t -> unit) option;
      (** called with each attempt's fresh flight recorder before the
          attempt starts executing — the hook [xinv top] uses to observe a
          live run.  The rings are still being written when this fires. *)
  on_watchdog : (Xinv_native.Watchdog.t -> unit) option;
      (** called with each attempt's fresh watchdog before any domain
          starts waiting on it — the serve daemon's cancellation handle:
          [Watchdog.cancel] on it unwinds just that request's cohort
          (e.g. when the submitting client disconnects) without touching
          a shared pool. *)
}

val native_defaults : native_opts

type backend = [ `Sim of Xinv_sim.Machine.t option | `Native of native_opts ]

type degrade_step = { d_from : technique; d_to : technique; d_reason : string }

type outcome = {
  technique : technique;
      (** the technique that actually executed (after degradation) *)
  cost : cost;  (** the run's cost in its backend's unit *)
  seq_cost : cost option;
      (** sequential execution of the same input, same unit.  [None]
          exactly when no baseline ran: a request with [verify] off and a
          policy other than [`Adaptive] executes once.  When [technique] is
          [Sequential] (asked for or degraded to), the run is its own
          baseline and this is [Some cost]. *)
  speedup : float option;
      (** [seq_cost] over [cost]; [None] exactly when [seq_cost] is, [Some
          1.0] for a [Sequential] execution *)
  verified : bool;
      (** [false] only when a check ran and found a mismatch; [true] when
          [verify] was off (nothing was checked) and for a [Sequential]
          execution, whose memory is the reference *)
  mismatches : (string * int) list;  (** locations that differ, when any *)
  profile : Xinv_speccross.Profiler.t option;  (** SPECCROSS profiling result *)
  run : Xinv_parallel.Run.t option;  (** simulated backend's run record *)
  nrun : Xinv_native.Nrun.t option;  (** native backend's run record *)
  degraded : degrade_step list;  (** degradation steps taken, in order *)
  analysis_ns : float;
      (** wall time spent in compile-time analysis and profiling
          ([Mtcg.generate], [Profiler.profile]) — cached or fresh *)
  cache_hits : int;  (** profile-cache hits served during this run *)
  cache_misses : int;
      (** profile-cache misses (0/0 when the cache is off or the run
          profiles nothing) *)
  flight : Xinv_obs.Flight.t option;
      (** the last attempt's flight recording (native backend with
          [flight] or [postmortem_dir] set; [None] otherwise) *)
  postmortems : string list;
      (** text postmortem paths written during this run, in degradation
          order (each sits next to a [.trace.json] Perfetto dump) *)
  policy_source : string;
      (** where the run's configuration came from: ["fixed"] (caller's
          arguments, the default), ["cached"] / ["default"] for
          [~policy:`Auto], the label of a [`Reified] policy, or
          ["adaptive:cached"] / ["adaptive:default"] /
          ["adaptive:sequential"] under the online controller *)
}

val report : ?obs:Xinv_obs.Recorder.t -> outcome -> Xinv_obs.Report.t option
(** The run's {!Xinv_obs.Report}, on either backend: the simulated run's
    entries and engine charges, or the native run's flight entries (when
    recorded) with its Stallcat blocked totals as the per-cause figures.
    [obs] supplies the native run's counters (a simulated run carries its
    own recorder).  [None] for a simulated sequential execution, which
    has no run record. *)

val applicable :
  ?backend:[ `Sim | `Native ] ->
  technique ->
  Xinv_workloads.Workload.t ->
  (unit, string) result
(** Compile-time applicability of the technique to the workload on the
    given backend (default [`Sim]).  Native inapplicability (Doacross,
    DSWP, Inspector, TLS have no native engines) is an [Error], not an
    exception.  The DOMORE-family check is a fresh [Mtcg.generate] on the
    ref input ({!Xinv_parallel.Plan.domore_applicable}). *)

val supported : backend:[ `Sim | `Native ] -> technique list
(** Techniques with an engine on the backend. *)

(** {1 Execution policies}

    The facade can take its configuration from three places: the caller's
    arguments ([`Fixed], the historical behaviour), a tuned policy
    persisted in the analysis cache by the {!Xinv_tune} autotuner
    ([`Auto]), or an online controller that probes a candidate policy
    against the per-run sequential baseline and abandons it mid-stream
    when it does not pay ([`Adaptive]). *)

type adaptive
(** Mutable controller state shared across a stream of {!run_request}
    calls. *)

type adaptive_phase = [ `Probing | `Candidate | `Sequential ]

val adaptive : ?probe_runs:int -> ?margin:float -> unit -> adaptive
(** A fresh controller: the first [probe_runs] (default 3) invocations run
    the candidate policy; if their cumulative wall time stays within
    [margin] (default 1.1) of the cumulative sequential baseline the
    candidate is committed, otherwise the stream switches to sequential
    execution.  A committed candidate is still watched: two consecutive
    losing runs switch to sequential for the rest of the stream, so an
    adaptive stream can never end slower than [margin] × sequential. *)

val adaptive_phase : adaptive -> adaptive_phase
val adaptive_switches : adaptive -> int

val adaptive_note :
  adaptive -> cand_ns:float -> seq_ns:float -> [ `Keep | `Switch ]
(** The controller's decision function, exposed for tests: feed one
    run's candidate and sequential timings, get the transition.
    {!run_request} with [policy = `Adaptive ctl] calls this internally. *)

type policy =
  [ `Fixed  (** the request's own fields, the historical behaviour *)
  | `Auto  (** tuned policy from the analysis cache, if one is stored *)
  | `Adaptive of adaptive  (** [`Auto] + online sequential-baseline probe *)
  | `Reified of Xinv_cache.Policy.t * string
    (** this exact policy record; the string labels [policy_source] and
        the [policy.source.*] counter (["searched"] from the autotuner) *)
  ]

(** {1 The request record}

    Every way of asking this library for one execution — the autotuner's
    measurement runs, the CLI, the experiments and one serve-daemon
    submission — is a value of {!Request.t}.  {!run_request} is the single
    execution path; everything else constructs a request and submits it. *)

module Request : sig
  type t = {
    workload : Xinv_workloads.Workload.t;
    technique : technique;
    threads : int;
    backend : backend;
    input : Xinv_workloads.Workload.input;
    checkpoint_every : int;
    verify : bool;
    cache : [ `Off | `Ro | `Rw ];
    cache_dir : string option;
    obs : Xinv_obs.Recorder.t option;
    policy : policy;
    sig_kind : Xinv_cache.Policy.sig_kind;
    spec_distance : int option;
  }

  val make :
    ?backend:backend ->
    ?input:Xinv_workloads.Workload.input ->
    ?checkpoint_every:int ->
    ?verify:bool ->
    ?cache:[ `Off | `Ro | `Rw ] ->
    ?cache_dir:string ->
    ?obs:Xinv_obs.Recorder.t ->
    ?policy:policy ->
    ?sig_kind:[ `Range | `Segmented | `Bloom | `Exact ] ->
    ?spec_distance:int ->
    technique:technique ->
    threads:int ->
    Xinv_workloads.Workload.t ->
    t
  (** Smart constructor with the facade's defaults: simulated backend
      (default machine), [Ref] input, verification on, cache off,
      [`Fixed] policy; checkpoint interval and signature kind from
      {!Xinv_cache.Policy.default}. *)

  val native_opts : t -> native_opts
  (** The request's native options, or {!native_defaults} on the sim
      backend — the environmental knobs a policy never overrides. *)

  val apply_policy : Xinv_cache.Policy.t -> t -> t
  (** Pin every axis the policy decides — backend, technique, threads,
      grain, batch, signature kind, speculative distance, epoch size —
      onto the request, preserving its environmental knobs, and mark it
      [`Fixed] (fully resolved). *)
end

val run_request : Request.t -> outcome
(** The single execution path.  Runs the request's workload under its
    technique with [threads] execution contexts total (DOMORE: 1 scheduler
    + workers; SPECCROSS: workers + 1 checker) on the chosen backend
    (default: simulated, default machine), with the engine configuration
    {!resolve} computes.  SPECCROSS profiles the train input first and falls back to
    barriers when unprofitable (§4.4), on both backends.

    With [cache] (default [`Off]), the run consults the incremental
    analysis cache in [cache_dir] (default [~/.cache/xinv]): on a
    fingerprint hit the SPECCROSS profile is read from disk instead of
    re-measured by a profiling run — identical results, near-zero
    profiling time in [analysis_ns].  The DOMORE plan is always derived
    fresh (it costs less than the lookup), so a DOMORE, Inspector or TLS
    run counts no hit and no miss.  [`Ro] never writes; [`Rw] publishes
    fresh results atomically.

    The sequential baseline runs only when something consumes it:
    [verify] (default on) diffs the final memory against the baseline's,
    and [`Adaptive] compares the run's cost with the baseline's.  It runs
    on its own fresh environment ahead of the engine (the simulator's
    sequential interpreter, or one native sequential run).  With [verify]
    off and no adaptive controller, nothing but the request's own
    technique executes, and [seq_cost] and [speedup] are [None].  A
    [Sequential] execution never runs a second, separate baseline.

    With [obs], the run is instrumented: the simulated backend streams
    typed events and metrics into the recorder; the native backend bumps
    aggregate counters ([domore.*], [speccross.*], [barrier.crossings])
    plus the robustness counters [fault.injected], [watchdog.stall] and
    [degrade.level], and records [Fault_injected] / [Run_stalled] /
    [Degraded] events.

    Native robustness: an armed [fault] fires at most once across the
    whole run; every blocking wait is bounded per [native_opts]; a failed
    attempt (injected fault, stall, worker exception) cancels its cohort,
    unwinds cleanly, and — with [degrade] on — is retried on a fresh
    environment under the next weaker technique
    (SPECCROSS → barrier → sequential; DOMORE → duplicated scheduler →
    barrier → sequential) within the same overall deadline.  The outcome's
    [technique] and [degraded] fields report what actually ran.  With
    [degrade] off, the typed error ({!Xinv_native.Fault.Injected},
    {!Xinv_native.Watchdog.Stalled}, …) is raised instead.

    [policy] (default [`Fixed]) selects where the configuration comes
    from.  [`Auto] looks the workload's fingerprint up in the analysis
    cache: a stored tuned policy overrides backend, technique, threads,
    grain, batch, signature kind, speculative distance and epoch size
    (the caller's [native_opts] keep supplying work model, pool, faults,
    deadlines and flight recording); on a miss the caller's configuration
    runs unchanged with [policy_source = "default"].  [`Adaptive ctl]
    runs the [`Auto] resolution while the controller probes, and switches
    the stream to sequential execution when the candidate does not pay
    (see {!adaptive}).  Policy resolution bumps the
    [policy.source.cached|searched|default] counters and emits
    [Policy_applied] / [Tune_switch] events when [obs] is attached.

    [sig_kind] and [spec_distance] expose the two previously hard-wired
    SPECCROSS knobs (default: [`Segmented] over live memory bounds; the
    profiled distance).  A [spec_distance] below the worker count is
    clamped up to it.

    @raise Failure when the technique is inapplicable to the backend
    (see {!applicable}). *)

val spec_mode_of_plan :
  Xinv_workloads.Workload.t -> string -> Xinv_speccross.Runtime.mode
(** Map the workload's Table 5.1 plan onto SPECCROSS execution modes. *)

(** {1 Engine configuration}

    One resolution step turns a request into its engine's configuration;
    both backends, [xinv trace] and the experiments consume it rather than
    rebuilding it. *)

module Engine : sig
  type t =
    | Sequential
    | Barrier
    | Doacross
    | Dswp
    | Inspector of Xinv_ir.Mtcg.plan
    | Tls of Xinv_ir.Mtcg.plan
    | Domore of (Xinv_ir.Mtcg.plan * Xinv_domore.Domore.config)
        (** §3.4 policy: memory partitioning where the workload asks for
            it, round-robin otherwise; 1 scheduler + [threads - 1] workers *)
    | Domore_dup of (Xinv_ir.Mtcg.plan * Xinv_domore.Domore.config)
        (** same policy, [threads] workers and no scheduler *)
    | Speccross of {
        config : Xinv_speccross.Runtime.config;
            (** profiled (or clamped override) distance, signature scheme,
                per-loop modes and injected misspeculation *)
        profile : Xinv_speccross.Profiler.t;  (** train-input profile *)
        profitable : bool;
            (** §4.4 verdict; when [false] both backends run barriers *)
      }
end

val resolve : Request.t -> Xinv_ir.Env.t -> Engine.t
(** Resolve the request's technique against [env] (a fresh environment of
    the request's input, which the engine then runs on).  The machine in
    the configs is the request's simulated machine (the default one for a
    native request); native runs derive their engine configs from these
    records.  Consults the analysis cache for the SPECCROSS profile per
    the request's [cache].
    @raise Failure when the MTCG transformation is inapplicable. *)

val simulate : ?trace:bool -> Request.t -> Xinv_parallel.Run.t option
(** The simulated engine call {!run_request} makes for a fixed request —
    {!resolve} on a fresh environment, then that engine — without the
    sequential baseline or verification; [None] for [Sequential].
    [trace] (default off) records the timeline segments of the barrier,
    DOMORE and SPECCROSS engines, which [xinv trace] renders. *)

val native_pool_size : technique:technique -> threads:int -> int
(** Pool domains one native run of [technique] needs beyond the caller. *)
