(** The resident parallelization daemon behind [xinv serve].

    One server owns exactly one shared {!Xinv_native.Pool} (created once;
    recreated — and counted — only if a wedged join ever marks it dead),
    one analysis-cache configuration, and one {!Xinv_obs.Metrics}
    registry.  Requests from any number of clients funnel through a
    bounded {!Fair} queue into a single scheduler thread, which executes
    them one at a time on the shared pool — concurrency lives in the
    queue, parallelism inside each run — so a thousand queued runs reuse
    the same domains instead of churning a pool each ({!pool_creates}
    stays 1).  The daemon runs requests only: a tuned policy reaches its
    [`Auto] runs through its [cache_dir], where [xinv tune --cache rw]
    stores it.

    Scheduling contract:
    - {e admission control}: a full queue rejects with
      [Rejected (Queue_full _)] at submission, typed, never blocking;
    - {e deadlines}: a request's [deadline_ms] is an end-to-end budget
      from submission.  Spent entirely in the queue it rejects with
      [Deadline_exceeded]; otherwise the remainder is armed as the native
      run's {!Xinv_native.Watchdog} deadline;
    - {e fairness}: [`High] before [`Normal], round-robin across tenants
      within a level (see {!Fair});
    - {e cancellation}: {!cancel} withdraws a queued job immediately, and
      cancels a running job's cohort through the watchdog the
      [on_watchdog] hook captured — the shared pool survives (the workers
      unwind within the grace window; see {!Xinv_native.Pool.run}).

    Per-tenant counters ([serve.tenant.<name>.submitted] etc.), global
    [serve.*] counters, the [serve.queue_wait_ms] histogram and the
    [serve.queue.depth] gauge live in the shared registry; {!snapshot}
    returns the consistent view a [stats] request ships back. *)

type config = {
  domains : int;  (** worker domains in the shared pool *)
  queue_capacity : int;
  cache : [ `Off | `Ro | `Rw ];
      (** daemon-wide cache ceiling; requests intersect with it *)
  cache_dir : string option;
  default_deadline_ms : float option;
      (** applied to requests that carry no deadline of their own *)
}

val default_config : config
(** 2 pool domains, capacity 1024, cache off, no default deadline. *)

type t

type job
(** Handle on one submitted request: await it, cancel it. *)

val create : config -> t
(** Creates the metrics registry and the shared pool (bumping
    [serve.pool.create] to 1).  The scheduler is not running yet. *)

val start : t -> unit
(** Spawn the scheduler thread.  Idempotent. *)

val stop : ?drain:bool -> t -> unit
(** Stop the scheduler and join it.  Queued jobs are drained: executed
    first when [drain] (default false), else rejected with
    [Shutting_down].  Idempotent; the pool is shut down last. *)

val submit : t -> Request.t -> job
(** Enqueue a run.  Admission control applies here: on a full queue or a
    stopping server the returned job is already finished with the typed
    rejection. *)

val await : job -> Protocol.server_msg
(** Block until the job finishes (thread-safe, any number of waiters). *)

val peek : job -> Protocol.server_msg option
(** [Some _] once finished, without blocking. *)

val cancel : t -> job -> unit
(** Queued: withdrawn and finished as [Rejected Cancelled].  Running
    native: the job's watchdog is cancelled with
    {!Xinv_native.Watchdog.Cancelled}, so only that cohort unwinds and the
    request is not retried down the degradation chain; the job finishes
    [Rejected Cancelled], also when the cancel lands after the run's last
    cancel point and the run completes.
    Running sim: no cancel point — the run completes and delivers its
    outcome.  Finished: no-op. *)

val snapshot : t -> Xinv_obs.Snapshot.t
val metrics : t -> Xinv_obs.Metrics.t

val pool_creates : t -> int
(** Times the shared pool was (re)created.  1 for the daemon's whole
    life unless a run wedged a domain beyond recovery. *)

val served : t -> int
(** Finished jobs (outcomes, rejections and failures alike). *)

val queued : t -> int

val pong : t -> Protocol.pong

val serve : t -> socket:string -> unit
(** Bind the Unix-domain socket (unlinking any stale file), start the
    scheduler, and accept clients until a [Shutdown] frame arrives.  Each
    connection gets its own thread and its own self-pipe.  While a
    request is in flight the thread blocks on both the client socket and
    the pipe: the job's completion writes a byte to the pipe, so the
    reply is sent as soon as the job finishes, and the peer's EOF is seen
    as soon as it arrives (disconnect ⇒ {!cancel}, and no reply is
    written to the dead peer).  The pipe is closed with its connection.
    SIGPIPE is set to ignore
    process-wide, so a racing disconnect surfaces as a per-connection
    [EPIPE] instead of killing the daemon.  A frame that does not decode
    (including the retired marshalled-workload tag and the retired tune
    tag 5) gets one [Bad_request] reply and its connection is dropped.  On shutdown every
    still-open connection is forcibly EOF'd so idle keep-alive clients
    cannot stall the exit.  Returns after the listener is closed, the
    socket file unlinked, all connection threads joined and the
    scheduler stopped. *)
