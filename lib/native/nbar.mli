(** Reusable sense-reversing barrier over [Atomic] counters — the native
    counterpart of {!Xinv_sim.Barrier}.  Crossing it establishes
    happens-before between everything done before the barrier on any party
    (the serial section included) and everything done after it on any
    other.

    A barrier has no failure state of its own: when a party dies, its
    cohort's watchdog is cancelled ({!Pool.run}) and the surviving parties'
    waits raise {!Watchdog.Cancelled}. *)

type t

val create : parties:int -> t

val wait : ?wd:Watchdog.t -> ?role:string -> ?serial:(unit -> unit) -> t -> unit
(** Waits through {!Watchdog.wait}: a party that arrives well before the
    last one parks, and the release wakes it.  The last party to arrive
    runs [serial] (default: nothing) before it releases the others, so one
    barrier both ends a phase and orders a serial step before the next.
    A release racing a cancellation wins — parties already released
    proceed normally.
    @raise Watchdog.Stalled / Watchdog.Cancelled per [wd]'s bounds. *)

val waits : t -> int
(** Completed barrier episodes. *)
