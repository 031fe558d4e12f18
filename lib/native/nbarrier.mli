(** Native sequential execution and the pthreads-style baseline: the
    workload's per-invocation plan ({!Xinv_parallel.Intra}) with a real
    barrier after every inner-loop invocation. *)

val run_seq : ?work:Work.t -> Xinv_ir.Program.t -> Xinv_ir.Env.t -> Nrun.t
(** Program order on the calling domain; the wall-clock baseline. *)

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
    execute every invocation under its planned technique, separated by
    barriers.  The pool must have at least [threads - 1] workers.
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
