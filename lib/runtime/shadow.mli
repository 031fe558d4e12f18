(** DOMORE shadow memory (dissertation §3.2.1).

    Tracks, per flat address, the worker/iteration of the most recent write
    and each worker's most recent read, so the scheduler emits
    synchronization conditions for true, anti and output dependences but not
    for read-after-read.

    The shadow is direct-mapped: one row per word of the memory it shadows
    and one reader column per worker, all sized at {!create}, so a note is
    an array index with no hashing, probing or growth.  Each row carries the
    generation that last touched it: {!reset} is O(1) (a generation bump)
    and never reallocates.  The note operations allocate nothing. *)

type t

val create : words:int -> workers:int -> t
(** A shadow for addresses [0 .. words - 1] (a memory's
    {!Xinv_ir.Memory.total_words}) noted by workers [0 .. workers - 1].
    Built once per scheduling thread and run, then {!reset} where a fresh
    shadow is needed.
    @raise Invalid_argument when [words < 0] or [workers <= 0]. *)

val reset : t -> unit
(** O(1): forgets every access by bumping the generation. *)

(** Accumulator for one iteration's synchronization dependences: the
    distinct [(tid, iter)] pairs the note operations found, in first-seen
    order, deduplicated with a per-worker bitmask instead of the O(n²)
    [List.mem] scan.  Created once and {!Deps.clear}ed per iteration,
    so the dependence-collection hot path performs zero allocation. *)
module Deps : sig
  type t

  val create : unit -> t

  val clear : t -> unit

  val length : t -> int

  val iter : (tid:int -> iter:int -> unit) -> t -> unit
  (** Iterate in first-seen order. *)

  val to_list : t -> (int * int) list
  (** [(tid, iter)] pairs, first-seen order; for tests and cold paths. *)
end

val note_read_deps : t -> int -> tid:int -> iter:int -> Deps.t -> unit
(** Record a read of an address by iteration [iter] of worker [tid]; adds
    the last write, if by another worker, to the accumulator.
    @raise Invalid_argument when [tid] or the address is out of range. *)

val note_write_deps : t -> int -> tid:int -> iter:int -> Deps.t -> unit
(** Record a write; adds the last write and the latest reads, each only if
    by another worker, to the accumulator: the writer first, then the
    readers, most recent first (the simulator's makespans depend on this
    order).
    @raise Invalid_argument when [tid] or the address is out of range. *)
