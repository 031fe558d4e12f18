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

val run :
  ?wd:Watchdog.t -> ?on_stall:(exn -> unit) -> t -> (unit -> unit) array -> unit
(** [run pool fns] executes [fns.(0)] on the calling domain and
    [fns.(1..)] on pool domains, returning when all have finished.
    [Array.length fns - 1] must not exceed [workers pool].  If any
    function raises, the first exception (lowest index) is re-raised
    after all functions have terminated.

    With [wd], joins are bounded: a worker that exceeds the watchdog's
    bounds triggers [on_stall] (the engine's chance to cancel the cohort
    so wedged workers unwind), then one more bounded wait; if the worker
    is still stuck the pool is marked dead — its domains leak until
    process exit, but the stall surfaces as {!Watchdog.Stalled} instead
    of a hang, and the poisoned pool can never corrupt a later run. *)

val shutdown : t -> unit
(** Terminates and joins the pool domains.  The pool is unusable after.
    No-op on a pool already marked dead by a stalled join (joining a
    wedged domain would hang forever). *)

val with_pool : workers:int -> (t -> 'a) -> 'a
(** Create, apply, always shut down. *)
