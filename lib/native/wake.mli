(** The native backend's one wait primitive: spin briefly, then park until
    a party that can satisfy the condition wakes the waiter.

    A waiter polls its predicate for {!spin_budget} [Domain.cpu_relax]
    steps, which covers the short waits of a busy cohort without a
    syscall (on a single core it skips the spin).  It then parks: it registers on the {e wake points} of the
    objects its predicate reads and blocks in the kernel on a private
    self-pipe.  Every write that can make some party's predicate true is
    followed by {!signal} on the matching wake point, which unparks the
    registered waiters.

    What parking guarantees:
    - {b no lost wake-up}: a waiter registers before its last re-check and
      a writer signals after its write, both through sequentially
      consistent atomics, so a satisfying write either is seen by the
      re-check or finds the waiter registered;
    - {b bounds honoured}: a parked waiter wakes by itself when [until]
      passes, so time bounds hold without a nap;
    - {b runtime lock released}: while parked the waiter is blocked in
      [Unix.select], so other systhreads of its domain (the serve daemon's
      connection threads) run, and an oversubscribed machine (more
      domains than cores) gives the core to the party being waited on. *)

type t
(** A wake point: the waiters currently parked on one condition. *)

val create : unit -> t

val signal : t -> unit
(** Wake every waiter parked on [t].  Call it after each write that can
    satisfy a waiter's predicate; with nobody parked it costs one atomic
    load.  Spurious wakes are harmless: a woken waiter re-checks. *)

val spin_budget : int
(** [Domain.cpu_relax] steps before a waiter parks: 2048 (about 60 us on a
    2-vCPU VM), or 0 when the process may run on one core only, where the
    party being waited for cannot run while the waiter spins. *)

val await : ?until:float -> t list -> (unit -> bool) -> bool
(** [await ?until points pred] returns [true] once [pred ()] holds, or
    [false] when the absolute Unix time [until] (default: never) passes
    first.  [points] must include a wake point signalled by every write
    that can turn [pred] true; [pred] must read that state through
    [Atomic] (so a satisfied wait also establishes the happens-before
    edge with the writer) and may be evaluated any number of times. *)
