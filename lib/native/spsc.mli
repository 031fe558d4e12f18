(** Bounded lock-free single-producer/single-consumer ring queue.

    The native-backend counterpart of the simulator's {!Xinv_sim.Channel}:
    the DOMORE scheduler domain streams {!Xinv_runtime.Sync_cond.to_int}
    words to each worker domain through one of these, and SPECCROSS workers
    stream signature requests to the checker domain.  Both producers write
    through a {!Batch}.

    Exactly one domain may push and exactly one may pop.  [head] and [tail]
    are monotonic [Atomic] counters padded onto their own cache lines; each
    side writes only its own counter and keeps a local cache of the peer's,
    so a steady-state operation touches no contended line beyond its own
    counter's.  The slot write happens before the counter store, which gives
    the peer happens-before on the payload.

    The bulk operations ({!pop_chunk}, {!Batch}) amortize
    the expensive seq_cst counter store over many items: one atomic publish
    per batch instead of one per element.

    Blocking operations wait through {!Watchdog.wait}: a blocked side
    parks, and every counter store signals the peer's wake point,
    {!on_push} or {!on_pop}.  A queue has no closed state: a blocked side
    whose peer died unwinds when the cohort's watchdog is cancelled
    ({!Pool.run}). *)

type 'a t

val create : dummy:'a -> capacity:int -> 'a t
(** The queue admits exactly [capacity] items (the backing buffer is rounded
    up to a power of two internally, but occupancy is bounded by the
    requested figure — a capacity-5 queue rejects a sixth push).  [dummy]
    fills empty slots (popped slots are reset to it so the queue never pins
    dead payloads). *)

val capacity : 'a t -> int
(** The requested capacity: the exact maximum occupancy. *)

val on_push : 'a t -> Wake.t
(** Signalled after every publish of new items: the wake
    point of a consumer that waits on [try_pop] outside {!pop} (the
    SPECCROSS checker, which polls several queues at once). *)

val on_pop : 'a t -> Wake.t
(** Signalled after every pop: the wake point of a
    producer waiting for room outside {!push} (the DOMORE scheduler, which
    waits for space on any of its queues). *)

val try_push : 'a t -> 'a -> bool
(** Producer only.  False when full. *)

val push : ?wd:Watchdog.t -> ?role:string -> 'a t -> 'a -> unit
(** Producer only.  Waits (parked) while full.
    @raise Watchdog.Stalled / Watchdog.Cancelled per [wd]'s bounds. *)

val try_pop : 'a t -> 'a option
(** Consumer only.  [None] when empty. *)

val pop_chunk : 'a t -> 'a array -> pos:int -> len:int -> int
(** Consumer only.  Pops up to [len] items into [dst.(pos ..)] with a
    single atomic store of the head index; returns the number popped (0
    when empty). *)

val pop : ?wd:Watchdog.t -> ?role:string -> 'a t -> 'a
(** Consumer only.  Waits (parked) while empty.
    @raise Watchdog.Stalled / Watchdog.Cancelled per [wd]'s bounds. *)

val length : 'a t -> int
(** Racy snapshot of the occupancy — exact for the producer/consumer
    themselves, approximate for third parties (the scheduling policy's
    load sampling tolerates staleness). *)

(** Producer-side write-combining buffer: [push] accumulates items locally
    and publishes them in ring-sized bursts, so the per-item cost drops to
    a plain array store.  The flushed stream is byte-for-byte the same
    sequence a plain {!push} loop would have produced — framing only, no
    reordering (property-tested against the unbatched path).  Flushed
    slots are reset to the queue's [dummy], so a buffer pins no payload it
    already published.  Users: the DOMORE scheduler ([Ndomore], at
    [--batch]) and each SPECCROSS worker ([Nspec], at the default size,
    flushed before every wait). *)
module Batch : sig
  type 'a queue := 'a t

  type 'a b

  val create : ?size:int -> 'a queue -> 'a b
  (** A buffer of [size] (default 32) items over [q].  Producer only. *)

  val pending : 'a b -> int
  (** Items buffered locally, not yet visible to the consumer. *)

  val try_flush : 'a b -> bool
  (** Publish as much of the buffer as currently fits (one atomic store);
      true when the buffer drained completely. *)

  val flush : ?wd:Watchdog.t -> ?role:string -> 'a b -> unit
  (** Blocking {!try_flush} until the buffer drains.
      @raise Watchdog.Stalled / Watchdog.Cancelled per [wd]'s bounds. *)

  val add : 'a b -> 'a -> bool
  (** Append without blocking (auto-[try_flush] when the buffer fills);
      false if neither buffer nor ring had room — the caller decides how to
      wait (see [Ndomore]'s all-queues flush loop, which must not block on
      one full queue while holding another worker's wake-up words). *)

  val push : ?wd:Watchdog.t -> ?role:string -> 'a b -> 'a -> unit
  (** Blocking [add]: flushes and waits for ring space as needed.
      @raise Watchdog.Stalled / Watchdog.Cancelled per [wd]'s bounds. *)
end
