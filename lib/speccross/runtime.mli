(** The SPECCROSS speculative-barrier runtime (dissertation Chapter 4) on
    the simulator: {!Protocol.Make} on a machine of [Mono_cell] frontiers,
    one per worker and generation, a checker channel that charges every
    request, and every [Proc.advance] charge of the protocol.

    Worker threads execute the region's invocations (epochs) without
    synchronizing at invocation boundaries: each task records the epoch/task
    positions of the other workers when it begins, computes an access
    signature, and submits a checking request; a dedicated checker thread
    compares the signature against every signature another worker logged
    between that recorded position and the task's own epoch.  A conflict is a
    misspeculation: workers rally, the last checkpoint is restored, and the
    epochs up to the flagged one re-execute under non-speculative barriers
    before speculation resumes.  A profiling-derived speculative range
    bounds how many epochs a thread may lead the slowest one. *)

type mode = Protocol.mode =
  | M_doall  (** iterations cyclically distributed, no within-epoch conflicts *)
  | M_localwrite  (** owner-compute within the epoch *)
  | M_domore of Xinv_domore.Policy.t
      (** §3.4 duplicated-scheduler DOMORE handles the epoch's irregular
          conflicts; the checker still guards cross-epoch dependences *)

type config = {
  machine : Xinv_sim.Machine.t;
  workers : int;  (** worker threads; the checker is one extra *)
  sig_kind : Xinv_runtime.Signature.kind;
  checkpoint_every : int;  (** epochs between checkpoints *)
  spec_distance : int;
      (** speculative range in tasks (§4.2.1): a thread stalls rather than
          run more than this many tasks ahead of the slowest thread; from
          {!Profiler} *)
  mode_of : string -> mode;  (** per inner-loop label *)
  inject_misspec : (int * int) option;
      (** force a misspeculation at [(epoch, worker)] — evaluation of
          Figure 5.3 *)
  non_spec_barriers : bool;
      (** replace speculative barriers with real ones: every epoch boundary
          synchronizes all workers and no signatures are computed.  Used for
          the "+Barrier" configurations of Figure 5.6, keeping the
          within-epoch execution modes identical. *)
  tm_style : bool;
      (** transactional-memory-style checking (Figure 4.4): the checker also
          compares a task against overlapping tasks of its *own* epoch, the
          provably-independent comparisons SPECCROSS's epoch rule skips.
          Costs only; such pairs can never be flagged as conflicts. *)
}

val default_config : workers:int -> config

val run :
  ?config:config ->
  ?obs:Xinv_obs.Recorder.t ->
  ?trace:bool ->
  Xinv_ir.Program.t ->
  Xinv_ir.Env.t ->
  Xinv_parallel.Run.t
(** Simulates the speculative execution, mutating the environment's memory
    to the (verified) final state.  [Run.tasks] is the region's iteration
    count, [Run.checks] counts checking requests, [Run.misspecs]
    recoveries and [Run.barrier_episodes] the non-speculative epoch
    boundaries crossed: all of them with [non_spec_barriers], else those
    inside a recovery's re-execution.  The other {!Protocol.counts} fill
    the fields of the same names (recovery time in cycles).  With
    [?obs], epoch commits, task dispatches, misspeculations, recoveries,
    checkpoints, signature checks and worker stalls are logged; recording
    consumes no virtual time, so the run is bit-identical with and without
    it. *)
