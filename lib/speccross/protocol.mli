(** The SPECCROSS protocol (dissertation Chapter 4), written once for every
    machine that runs it.

    {!Make} holds the engine: the workers' epoch loop with its speculative
    range throttle, the task bracket (frontier snapshot, signature,
    {!Xinv_runtime.Siglog.store}, checking request), the three epoch modes,
    the checkpoint and irreversible-epoch rallies, recovery, and the
    checker's window rule.  A {!MACHINE} supplies only how its threads
    publish and wait on frontiers, execute statements, charge time, pass
    requests to the checker and rally for a recovery: the simulator
    ({!Runtime.run}) and real domains ([Xinv_native.Nspec]).

    Recovery runs in this order: every worker {!MACHINE.rally}s; worker 0
    restores the last checkpoint, clears the signature log and the DOMORE
    schedule check, {!MACHINE.reset}s, and sets the epoch speculation
    resumes at to one past the lowest epoch the checker flagged; every
    worker {!MACHINE.resume}s at the restored epoch.  The ordinary epoch
    loop then re-executes the epochs below the resume point as
    [non_spec_barriers] does (a barrier at each boundary, plain task
    bodies), and the checkpoint rally at the resume point ends the
    recovery.

    Rules every machine must keep:
    - {b Monotone frontiers.}  Within a generation (between two
      {!MACHINE.reset}s) {!MACHINE.publish} never lowers a frontier, and a
      thread that reads the new value ({!MACHINE.get}, {!MACHINE.await})
      sees every write the publisher made before it: memory, and the
      signatures it stored in the log.
    - {b Abort releases every wait.}  Once {!MACHINE.verdict} has reported
      a conflict, every {!MACHINE.await}, {!MACHINE.await_drained} and
      {!MACHINE.await_abort} of that generation returns, satisfied or not,
      and {!MACHINE.aborted} holds until {!MACHINE.reset}.
    - {b Signal after every store.}  A wait may only return early by
      raising; so every store that can satisfy one (a frontier, a drained
      checker, an abort, the end of the run) must wake its waiters.
    - {b Buffered requests reach the checker before their worker waits.}
      A machine may hold {!MACHINE.submit}ted requests back to publish
      them in bursts, but a worker's buffered requests reach the checker
      before it blocks (any wait, a rally) or publishes a new epoch
      ([Progress]), and before it {!MACHINE.finish}es: a drain, a rally or
      the wait for a forced conflict's abort may depend on them.
    - {!MACHINE.run} returns once every thread returned; thread [i] records
      on flight domain [i]: workers [0 .. workers - 1], then the checker. *)

(** How an epoch's iterations are distributed among the workers. *)
type mode =
  | M_doall  (** iterations cyclically distributed, no within-epoch conflicts *)
  | M_localwrite  (** owner-compute within the epoch *)
  | M_domore of Xinv_domore.Policy.t
      (** §3.4 duplicated-scheduler DOMORE handles the epoch's irregular
          conflicts; the checker still guards cross-epoch dependences *)

(** The epoch layout of a region (§4.2): epoch [e] is inner loop [e mod n]
    of outer iteration [e / n], for [n] inner loops. *)
module Epochs : sig
  type t = {
    env : Xinv_ir.Env.t;  (** the region's environment *)
    inners : Xinv_ir.Program.inner array;
    count : int;  (** epochs: outer trip count times inner loops *)
    base : int array;
        (** global task position of each epoch's first task; [base.(count)]
            is the region's task total *)
    hot : string -> bool;
        (** arrays some inner-loop body writes: the only accesses that may
            alias across epochs, so the only ones a signature records *)
    side_effecting : bool array;  (** per inner loop: has irreversible statements *)
  }

  val make : Xinv_ir.Program.t -> Xinv_ir.Env.t -> t

  val env_of : t -> int -> Xinv_ir.Program.inner * Xinv_ir.Env.t
  (** The inner loop of an epoch and its outer iteration's environment. *)

  val irreversible : t -> int -> bool
  (** Whether an epoch contains irreversible (side-effecting) statements:
      such epochs execute non-speculatively, once, with all workers
      rallied, and a fresh checkpoint follows so recovery never replays
      them (§4.2.2). *)
end

type config = {
  workers : int;  (** worker threads; the checker is one extra *)
  sig_kind : Xinv_runtime.Signature.kind;
  checkpoint_every : int;  (** epochs between checkpoints; 0 disables *)
  spec_distance : int;
      (** speculative range: max task lead over the slowest worker; clamped
          up to [workers], below which the throttle stalls the run *)
  mode_of : string -> mode;  (** per inner-loop label *)
  inject_misspec : (int * int) option;  (** force one conflict at (epoch, worker) *)
  non_spec_barriers : bool;
      (** every epoch boundary synchronizes all workers and no signatures
          are computed *)
  tm_style : bool;
      (** the checker also pays for same-epoch comparisons (Figure 4.4),
          which never flag a conflict *)
  grain : int;
      (** [M_doall] iterations per task; clamped to half the speculative
          range, so a block never widens the misspeculation window past
          the throttle *)
}

(** A worker's own frontiers, one slot per worker: the epoch boundary it
    reached ([Progress]), the global task position it may run up to
    ([Tpos], the throttle's), the position up to which its signatures are
    in the log ([Dpos], the one a task snapshots), and the position of the
    last iteration of a DOMORE epoch it executed or passed as a non-owner
    ([Done]; a peer waits on it only for iterations its own schedule gives
    this worker, so schedules that disagree cannot deadlock).  Worker 0's run
    frontiers, one slot each: the latest checkpointed epoch boundary
    ([Ckpt]) and the latest irreversible epoch done ([Io]). *)
type frontier = Progress | Tpos | Dpos | Done | Ckpt | Io

(** Why a thread waits: it names the stall ({!cause}) and, on the
    simulator, the category the wait is charged to. *)
type wait =
  | Range  (** a trailing peer, for the speculative range *)
  | Rally  (** peers at an epoch boundary, or worker 0's rally result *)
  | Ckpt_rally  (** the checkpoint rally *)
  | Drain  (** the checker, to process every submitted request *)
  | Dep  (** a DOMORE epoch's cross-iteration dependence *)

val cause : wait -> Xinv_obs.Cause.t

(** Time a simulated step costs (no-ops on real domains): the task
    bracket's entry, [n] instrumented accesses and exit; the checker
    comparing [n] signatures; a DOMORE epoch's scheduling step over [n]
    addresses; a non-speculative barrier; a checkpoint; a recovery. *)
type cost =
  | Enter
  | Access of int
  | Exit
  | Check of int
  | Schedule of int
  | Barrier
  | Checkpoint
  | Recovery

(** What a worker executes: an epoch's sequential region ([Pre], on every
    worker), a whole irreversible epoch in program order ([Seq], on worker
    0), one iteration's body ([Doall]) or the statements of it the worker
    owns ([Localwrite]), or the visit of an iteration it does not own
    ([Skip]). *)
type kind = Pre | Seq | Doall | Localwrite | Skip

(** A checking request: [worker]'s task in [epoch] with signature [sg],
    begun when every worker's [Dpos] was [started]; [force] makes it a
    conflict. *)
type request = {
  worker : int;
  epoch : int;
  sg : Xinv_runtime.Signature.t;
  started : int array;
  force : bool;
}

module type MACHINE = sig
  type t

  val publish : t -> w:int -> frontier -> int -> unit
  (** Worker [w] publishes its own slot of a frontier ([Ckpt] and [Io]:
      the one slot). *)

  val get : t -> w:int -> frontier -> int -> int
  (** [get m ~w f p]: slot [p] of frontier [f], as worker [w] sees it. *)

  val await : t -> w:int -> wait -> frontier -> int -> int -> unit
  (** [await m ~w why f p v]: [w] blocks until [get m ~w f p >= v], or an
      abort. *)

  val await_drained : t -> w:int -> wait -> unit
  (** Until the checker processed every request submitted, or an abort. *)

  val await_abort : t -> w:int -> unit

  val charge : t -> cost -> unit

  val exec : t -> w:int -> kind -> Xinv_ir.Env.t -> Xinv_ir.Program.inner -> unit
  (** In the outer iteration's environment for [Pre] and [Seq], else in
      the iteration's. *)

  val submit : t -> request -> unit

  val finish : t -> w:int -> unit
  (** Worker [w] leaves the region: once every worker did, {!take}
      returns [None]. *)

  val take : t -> request option
  (** The checker's next request of the current generation whose window
      is complete: every other worker's [Progress] reached its epoch. *)

  val verdict : t -> request -> bool -> unit
  (** The checker processed the request; [true] aborts the generation. *)

  val rally : t -> w:int -> unit
  (** Recovery's first step: returns on worker 0 once every worker rallied
      and the checker is done with the generation. *)

  val reset : t -> unit
  (** Worker 0, rallied: start the next generation, with every frontier
      back at [-1], no request pending and no abort. *)

  val resume : t -> w:int -> unit
  (** Returns once worker 0 reset; [w] then runs in the new generation. *)

  val aborted : t -> w:int -> bool

  val abandon : t -> w:int -> bool
  (** Whether worker [w] leaves its aborted epoch now rather than finish
      it (work that recovery discards anyway). *)

  val containable : t -> exn -> bool
  (** Whether an exception raised by speculative work is a misspeculation
      symptom, to be turned into a forced conflict. *)

  val fault : t -> domain:int -> site:int -> unit
  (** A fault point: worker [domain] at epoch [site], or the checker
      ([domain = workers]) at its [site]-th request. *)

  val clock : t -> float
  (** The time recoveries are recorded in: cycles, or nanoseconds. *)

  val record : t -> domain:int -> Xinv_obs.Flight.kind -> a:int -> b:int -> unit
  val run : t -> (unit -> unit) array -> unit
end

(** What a run counted, once each: the run's totals on either machine.
    They do not depend on the flight recorder, which may drop entries. *)
type counts = {
  tasks : int;  (** the region's iterations *)
  checks : int;  (** checking requests submitted *)
  misspecs : int;  (** conflicts found, each one recovery *)
  barriers : int;
      (** non-speculative epoch boundaries crossed: every boundary with
          [non_spec_barriers], else those between two epochs a recovery
          re-executes *)
  checkpoints : int;  (** checkpoints taken, the initial one included *)
  epochs_redone : int;  (** epochs that recoveries re-executed *)
  recovery_time : int;
      (** time inside recoveries, in {!MACHINE.clock}'s unit: from each
          rally to the checkpoint that ends its re-execution, or the
          region end *)
  signatures_compared : int;  (** signatures the checker compared, over every window *)
}

module Make (M : MACHINE) : sig
  val run : M.t -> config -> Xinv_ir.Program.t -> Xinv_ir.Env.t -> counts
  (** Runs the region to completion, leaving memory in its sequential
      final state, and returns its {!counts}.  Records [Dispatch] per
      task, [Epoch_commit] per epoch worker 0 commits (redone ones too),
      [Checkpoint], [Sig_check] with the window size, [Misspec] and
      [Recovery] (epochs redone, and the time from the rally to the
      checkpoint that ends the re-execution, or the region end).

      An epoch is speculative unless [non_spec_barriers] is set or a
      recovery re-executes it.  Only a speculative epoch contains an
      exception its work raises ({!MACHINE.containable}) as a forced
      conflict; in a re-executed epoch the exception escapes the run.

      A task's instrumented accesses are evaluated inside its bracket,
      after the frontier snapshot: every index they load is then final or
      written by a task in the request's window.

      In an [M_domore] epoch every worker schedules every iteration with
      {!Xinv_domore.Policy.assign}, as DOMORE's duplicated scheduler does,
      from speculative memory, so two workers can disagree on an owner
      (their write addresses read data an unfinished earlier epoch writes);
      an iteration then runs twice or never, and no signature shows it.
      Wherever every worker has finished an epoch range (the checkpoint and
      irreversible-epoch rallies, the region end), the engine checks that
      the iterations the workers ran cover each DOMORE position of the
      range exactly once, and otherwise forces a misspeculation.
      @raise Invalid_argument if [workers] or [grain] is not positive, or
      if a sequential region writes memory
      ({!Xinv_parallel.Plan.speccross_sequential_regions}): every worker
      runs it, outside any signature. *)
end
