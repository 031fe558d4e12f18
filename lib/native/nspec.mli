(** Native SPECCROSS (dissertation Chapter 4): speculative barriers on real
    domains, with a dedicated checker domain.

    Workers execute consecutive epochs (inner-loop invocations) without
    barriers, bounded by the speculative-range throttle.  When a task ends,
    its worker stores the {!Xinv_runtime.Signature} of its instrumented
    accesses in the {!Xinv_runtime.Siglog}, at the task's global position,
    then sends the checker a request carrying the signature and a snapshot
    of every other worker's signature frontier taken at task entry, and
    only then advances its own frontier ([dpos], a monotonic [Atomic] per
    worker: every signature at a global position <= its value is already
    in the log, and, because the frontier store follows the task's memory
    writes, those tasks' effects are visible to any domain that reads the
    frontier afterwards).  The checker only reads the log, with the
    simulator's window rule: a task is compared against other workers'
    signatures {e after the snapshot} and {e from earlier epochs}.  It
    holds each worker's oldest request and processes any held request once
    every other frontier has passed the request's epoch base, in any
    order, because the request's window is then complete.  The epoch
    layout is the simulator's ({!Xinv_speccross.Runtime.Epochs}), as are
    the LOCALWRITE ownership rules ({!Xinv_parallel.Intra.owns}).

    On a conflict the checker flips the global abort flag and bumps the
    generation; workers rally at a sense-reversing barrier, worker 0
    restores the last in-memory checkpoint, the misspeculated epochs are
    re-executed non-speculatively with real barriers, each through the
    barrier engine's per-invocation share ({!Nbarrier.run_share}), a fresh
    checkpoint is taken and speculation resumes.  Worker 0 clears the
    signature log during recovery, while every worker waits at the barrier,
    and prunes it at the checkpoint and irreversible-epoch rallies, after
    the checker has drained.  Requests from dead generations are dropped,
    so recovery never leaks stale conflicts. *)

type config = {
  workers : int;  (** worker domains, excluding the checker *)
  sig_kind : Xinv_runtime.Signature.kind;
  checkpoint_every : int;  (** epochs between checkpoints; 0 disables *)
  spec_distance : int;  (** max task lead over the slowest worker *)
  mode_of : string -> Xinv_speccross.Runtime.mode;
      (** per-inner execution mode; [M_domore] is not supported natively *)
  inject_misspec : (int * int) option;  (** force one conflict at (epoch, worker) *)
  work : Work.t;
  grain : int;
      (** [M_doall] tasks per speculative block: one throttle step, one
          signature and one checking request per block of [grain]
          consecutive iterations.  1 (the default) is the original
          task-per-iteration protocol; larger grains are clamped against
          [spec_distance] so chunking cannot widen the misspeculation
          window past the throttle. *)
}

val default_config : workers:int -> config

val run :
  pool:Pool.t ->
  ?wd:Watchdog.t ->
  ?fault:Fault.t ->
  ?fr:Xinv_obs.Flight.t ->
  ?config:config ->
  Xinv_ir.Program.t ->
  Xinv_ir.Env.t ->
  Nrun.t
(** Worker 0 runs on the calling domain; workers 1.. and the checker run on
    pool domains (the pool needs [workers] of them).  Mutates the
    environment's memory to the final state.

    Every blocking wait (throttle, rallies, barrier, queue push) is
    bounded by [wd] (an internal unbounded watchdog provides cancellation
    when omitted).  Workers and checker run as one {!Pool.run} cohort: a
    failing domain cancels [wd], which wakes every waiter, and the root
    cause is re-raised after the run unwinds — also when the caller
    cancelled [wd] itself.  Speculative misspeculation recovery is
    unaffected.  [fault] sites are epoch ordinals ([Checker_die]:
    drained-request count): [Worker_raise] raises in the matched worker,
    [Scheduler_die] in worker 0, [Checker_die] in the checker,
    [Queue_stall] freezes the matched worker's signature stream, and
    [Poison_cond] wedges the matched worker.

    With a flight recorder [fr] attached (needs [workers + 1] rings:
    worker [w] on ring [w], checker on ring [workers]) the run records
    block dispatches, epoch commits, signature checks with their window
    sizes, misspeculations, checkpoints, recoveries (epochs redone and
    nanoseconds taken), barrier episodes, queue samples and stall episodes
    with no effect on speculation.
    @raise Invalid_argument if any inner's mode is [M_domore]. *)
