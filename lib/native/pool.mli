(** Persistent domain pool.

    Domains are spawned once and park between jobs — a short spin, then
    blocked in the kernel until the next job is handed over ("pinned" in the sense of one dedicated domain per worker for the
    backend's whole lifetime; OS-level CPU affinity is left to the runner —
    see EXPERIMENTS.md).  Spawning domains per run would dominate the
    short regions the benchmarks measure. *)

type t

val create : workers:int -> t
(** Spawns [workers] parked domains. *)

val workers : t -> int

val live : t -> bool
(** False once the pool was shut down or a wedged join marked it dead.
    A long-lived owner (the serve daemon) checks this before reuse and
    replaces a dead pool instead of calling {!run} into an
    [Invalid_argument]. *)

val run : ?wd:Watchdog.t -> t -> (unit -> unit) array -> unit
(** [run pool fns] executes [fns.(0)] on the calling domain and
    [fns.(1..)] on pool domains, returning when all have finished.
    [Array.length fns - 1] must not exceed [workers pool].  If any
    function raises, the first exception (lowest index) is re-raised
    after all functions have terminated.

    With [wd], [fns] run as one cohort that unwinds through the watchdog:
    - the first function to raise cancels [wd] with its exception, which
      wakes every peer waiting on [wd] with {!Watchdog.Cancelled};
    - a join that exceeds [wd]'s bounds cancels [wd] with the
      {!Watchdog.Stalled}, then waits one more window (see
      {!Watchdog.grace}); a worker still stuck after that marks the pool
      dead — its domain leaks until process exit, but the stall surfaces
      instead of a hang, and the dead pool can never corrupt a later run;
    - once every function has terminated, a cancelled [wd] re-raises its
      {!Watchdog.root_cause}, whoever cancelled it — a peer's secondary
      [Cancelled] never hides the failure, and a caller's cancellation is
      never mistaken for a completed run. *)

val shutdown : t -> unit
(** Terminates and joins the pool domains.  The pool is unusable after.
    No-op on a pool already marked dead by a stalled join (joining a
    wedged domain would hang forever). *)

val with_pool : workers:int -> (t -> 'a) -> 'a
(** Create, apply, always shut down. *)
