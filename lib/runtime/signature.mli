(** Memory-access signatures for speculation checking (dissertation §4.2.1).

    A signature is an over-approximate summary of the addresses a task
    accessed: intersection testing may report false positives but never false
    negatives.  SPECCROSS defaults to the min/max range scheme; a Bloom
    filter scheme suits scattered access patterns; the exact scheme (a hash
    set) is the oracle used by tests and by profiling. *)

type kind =
  | Range  (** minimum/maximum accessed address *)
  | Segmented of int array
      (** per-array min/max index ranges; the argument is the sorted list of
          array base offsets ({!Xinv_ir.Memory.bounds}) — the "range of array
          indices" scheme §5.2 describes.  Addresses outside the bounds clamp
          into the nearest segment (widening its range) rather than failing,
          so unexpected workload addresses degrade precision, not safety. *)
  | Bloom of { bits : int; hashes : int }
  | Exact

type t

val create : kind -> t

val kind : t -> kind

val add : t -> int -> unit
(** Record one accessed flat address. *)

val add_list : t -> int list -> unit

val add_array : t -> int array -> unit
(** As {!add_list} without requiring an intermediate list. *)

val add_iter : t -> ((int -> unit) -> unit) -> unit
(** [add_iter t feed] calls [feed] with a sink that records addresses;
    address producers (e.g. {!Xinv_ir.Slice} iterators) can stream into the
    signature without materializing a list. *)

val count : t -> int
(** Number of [add] calls (not distinct addresses). *)

val is_empty : t -> bool

val intersects : t -> t -> bool
(** May the two tasks have touched a common address?  Signatures must be of
    the same kind.

    Over-approximation contract: if the two tasks share an address, this
    returns [true] (no false negatives, for every kind); it may return
    [true] when they do not (false positives cost a needless
    misspeculation, never a missed dependence).  [Exact] signatures are
    precise.  The scan early-exits on the first overlapping range, segment,
    Bloom word or common address. *)

val merge : into:t -> t -> unit
(** Fold another signature of the same kind into [into]. *)

