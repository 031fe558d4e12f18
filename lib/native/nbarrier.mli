(** Native sequential execution and the pthreads-style baseline: the
    workload's per-invocation plan ({!Xinv_parallel.Intra}) with one real
    barrier after every inner-loop invocation, as on the simulator
    ({!Xinv_parallel.Barrier_exec}). *)

val run_seq : ?work:Work.t -> Xinv_ir.Program.t -> Xinv_ir.Env.t -> Nrun.t
(** Program order on the calling domain; the wall-clock baseline. *)

(** {2 One invocation}

    The pieces of {!run} that the native SPECCROSS engine ({!Nspec}) also
    executes its epochs with, speculative or not: the sequential region,
    an irreversible epoch in program order, and one thread's part of an
    iteration. *)

val exec_pre : Work.t -> Xinv_ir.Env.t -> Xinv_ir.Program.inner -> unit
(** The invocation's sequential region, in the outer iteration's
    environment.  {!run} runs it inside the barrier that ends the
    previous invocation. *)

val run_invocation_seq : Work.t -> Xinv_ir.Env.t -> Xinv_ir.Program.inner -> int
(** The whole invocation in program order on the calling domain:
    sequential region, then every iteration.  Returns the trip count. *)

type share
(** What the threads of a barrier cohort share to execute their parts of
    an invocation: the work model, the grain, the thread count, the
    DOANY lock stripe ({!Xinv_parallel.Intra.stripe}) and the
    program's bodies, resolved once ({!Xinv_ir.Footprint.bodies}). *)

val share : work:Work.t -> grain:int -> threads:int -> Xinv_ir.Program.t -> Xinv_ir.Env.t -> share

val exec_iteration :
  share ->
  Xinv_parallel.Intra.technique ->
  tid:int ->
  Xinv_ir.Env.t ->
  Xinv_ir.Program.inner ->
  unit
(** Thread [tid]'s part of one iteration, in its environment: the whole
    body, under the DOANY lock stripe when it commutes, or for LOCALWRITE
    the statements it owns, with traversal statements burned and applied
    by the {!Xinv_parallel.Intra.executor}. *)

val run :
  pool:Pool.t ->
  ?wd:Watchdog.t ->
  ?fault:Fault.t ->
  ?fr:Xinv_obs.Flight.t ->
  ?work:Work.t ->
  ?grain:int ->
  threads:int ->
  plan:(string -> Xinv_parallel.Intra.technique) ->
  Xinv_ir.Program.t ->
  Xinv_ir.Env.t ->
  Nrun.t
(** [threads] domains (1 from the caller + [threads - 1] pool domains)
    execute every invocation under its planned technique, each ended by
    one barrier: [Nrun.barrier_episodes] is the invocation count.  An
    invocation's sequential region runs once, before any thread's share:
    the caller runs the first one, and the last thread to reach the
    barrier that ends an invocation runs the next one's before it releases
    the others ({!Nbar.wait}'s [serial]).  The pool must have at least
    [threads - 1] workers.
    [grain] (default 1) selects a block-cyclic iteration distribution for
    cyclic techniques: blocks of [grain] consecutive iterations per thread,
    trading load balance for spatial locality; 1 is the classic cyclic
    distribution and leaves the memory state bit-identical.

    All barrier waits are bounded by [wd] (an internal unbounded watchdog
    provides cancellation when omitted).  The threads run as one
    {!Pool.run} cohort: a failing thread cancels [wd], which wakes every
    barrier waiter, and the root cause is re-raised after the run unwinds
    — also when the caller cancelled [wd] itself.  [fault] injection sites are global invocation
    ordinals; the barrier engine honours [Worker_raise] and
    [Poison_cond].

    With a flight recorder [fr] attached ([threads] rings, thread [tid] on
    ring [tid]) every barrier episode records arrive/release events plus a
    timed barrier stall, and thread 0 marks invocation dispatch/commit. *)
