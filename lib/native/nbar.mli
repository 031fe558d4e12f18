(** Reusable sense-reversing barrier over [Atomic] counters — the native
    counterpart of {!Xinv_sim.Barrier}.  Crossing it establishes
    happens-before between everything done before the barrier on any party
    and everything done after it on any other.

    A barrier can be {e poisoned} when a party dies: instead of leaving
    the surviving parties waiting for an arrival that will never come,
    every current and future [wait] raises {!Poisoned}. *)

type t

exception Poisoned

val create : parties:int -> t

val wait : ?wd:Watchdog.t -> ?role:string -> t -> unit
(** Waits through {!Watchdog.wait}: a party that arrives well before the
    last one parks, and the release (or {!poison}) wakes it.
    @raise Poisoned if the barrier is or becomes poisoned while waiting
      (a release racing the poison wins — parties already released
      proceed normally).
    @raise Watchdog.Stalled / Watchdog.Cancelled per [wd]'s bounds. *)

val poison : t -> unit
(** Release all waiting parties with {!Poisoned}; subsequent waits raise
    immediately.  Irreversible. *)

val poisoned : t -> bool

val waits : t -> int
(** Completed barrier episodes. *)
