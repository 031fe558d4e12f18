(** The DOMORE runtime engine (dissertation Chapter 3) on the simulated
    multicore.

    One scheduler thread executes the sequential regions, duplicates address
    computation ([computeAddr]) for every inner-loop iteration, detects
    dynamic dependences through shadow memory, and dispatches iterations with
    synchronization conditions to worker threads over lock-free queues.
    Workers stall only on conditions that name iterations they genuinely
    depend on, so iterations of consecutive invocations overlap — the
    non-speculative exploitation of cross-invocation parallelism.

    Both engines here are {!Protocol.Make} on the simulator: queues are
    {!Xinv_sim.Channel}s charging each message's produce and consume cost,
    completion frontiers are {!Xinv_sim.Mono_cell}s, and scheduling, shadow
    updates and statements are charged in virtual cycles.  Each iteration
    travels as its own frame. *)

type config = {
  machine : Xinv_sim.Machine.t;
  policy : Policy.t;
  workers : int;  (** worker threads, excluding the scheduler *)
}

val default_config : workers:int -> config

val run :
  ?config:config ->
  ?obs:Xinv_obs.Recorder.t ->
  ?trace:bool ->
  plan:Xinv_ir.Mtcg.plan ->
  Xinv_ir.Program.t ->
  Xinv_ir.Env.t ->
  Xinv_parallel.Run.t
(** Simulates DOMORE execution; mutates the environment's memory to the
    final program state.  The scheduler is simulated thread 0, workers are
    threads 1..workers.  [Run.checks] counts the synchronization conditions
    forwarded.  With [?obs], sync-condition forwarding, task
    dispatch, sampled queue occupancy and worker stalls are recorded; recording
    consumes no virtual time, so the run is bit-identical with and without
    it.  @raise Invalid_argument if the plan re-partitioned body statements
    into the scheduler (unsupported degenerate case). *)

val run_duplicated :
  ?config:config ->
  ?obs:Xinv_obs.Recorder.t ->
  plan:Xinv_ir.Mtcg.plan ->
  Xinv_ir.Program.t ->
  Xinv_ir.Env.t ->
  Xinv_parallel.Run.t
(** Duplicated-scheduler DOMORE (dissertation §3.4, Figures 3.8/3.9).

    Every worker thread runs the scheduler code — sequential regions,
    [computeAddr], a private shadow memory, the scheduling decision — and
    executes only the iterations scheduled to itself, synchronizing through
    the shared [latestFinished] cells; the scheduling work is charged as
    redundant on every thread.  Workers only (no scheduler thread):
    simulated threads 0..workers-1, default 4.  [checks] counts the
    conditions the owners awaited. *)

val scheduler_worker_ratio : Xinv_parallel.Run.t -> float
(** Scheduler busy time over total worker work (Table 5.2's metric). *)
