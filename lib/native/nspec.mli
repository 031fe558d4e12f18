(** Native SPECCROSS (dissertation Chapter 4): {!Xinv_speccross.Protocol.Make}
    on real domains, with a dedicated checker domain.

    The protocol — the epoch loop, the speculative-range throttle, the task
    bracket, the three epoch modes, the rallies, the order of recovery and
    the checker's window rule — is the simulator's, written once.  This
    machine supplies its threads:
    - frontiers are padded [Atomic]s, one per worker, woken through one
      {!Wake} point signalled after every store; [Dpos] is stored after
      the task's memory writes and its signature's
      {!Xinv_runtime.Siglog.store}, so a domain that reads it sees both;
    - each worker sends its checking requests on its own {!Spsc} ring,
      write-combined through a {!Spsc.Batch} of the default size and
      flushed before the worker waits (on a frontier, the checker or a
      barrier), when it publishes [Progress] and when it leaves the
      region: the protocol's rule on buffered requests.  The checker
      holds the oldest unprocessed request of each worker and takes any
      held request once every other worker's [Progress] reached its
      epoch, because its window is then complete;
    - on a conflict the checker raises the abort flag, which releases every
      wait, and bumps the generation; a worker leaves its aborted epoch at
      the next iteration.  Workers rally at a sense-reversing barrier
      ({!Nbar}); worker 0 restores the last checkpoint and resets the
      frontiers; requests from dead generations are dropped.  The
      protocol's epoch loop then re-executes, without speculation, the
      epochs up to the one the checker flagged, with the workers meeting at
      every epoch boundary, as on the simulator;
    - an exception from speculative work (other than a fault or the
      watchdog's) turns the task into a forced conflict.

    [M_domore] epochs run the §3.4 duplicated scheduler: a worker waits on
    an owner's [Done] frontier, the global position of the last iteration
    it executed or passed.  Schedules that disagree (read from speculative
    memory) are caught by the engine's schedule check at the next rally or
    the region end, as on the simulator. *)

type config = {
  workers : int;  (** worker domains, excluding the checker *)
  sig_kind : Xinv_runtime.Signature.kind;
  checkpoint_every : int;  (** epochs between checkpoints; 0 disables *)
  spec_distance : int;  (** max task lead over the slowest worker *)
  mode_of : string -> Xinv_speccross.Runtime.mode;  (** per inner-loop label *)
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
    unaffected.  [fault] sites are epoch ordinals ([Checker_die]: the
    checker's request count): [Worker_raise] raises in the matched worker,
    [Scheduler_die] in worker 0, [Checker_die] in the checker,
    [Queue_stall] freezes the matched worker's signature stream, and
    [Poison_cond] wedges the matched worker.

    With a flight recorder [fr] attached (needs [workers + 1] rings:
    worker [w] on ring [w], checker on ring [workers]) the run records
    block dispatches, worker 0's epoch commits (redone epochs too),
    signature checks with their window
    sizes, misspeculations, checkpoints, recoveries (epochs redone and
    nanoseconds taken), queue samples and stall episodes with no effect on
    speculation.  [Nrun.tasks] is the region's iteration count, and
    [Nrun.barrier_episodes] the non-speculative epoch boundaries recovery
    crossed; the other {!Xinv_speccross.Protocol.counts} fill the fields of
    the same names (recovery time in nanoseconds), whatever the flight
    recorder kept. *)
