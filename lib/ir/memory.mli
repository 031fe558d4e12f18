(** Simulated shared memory: named integer and floating-point arrays.

    Every array lives at a distinct base offset in one flat address space, so
    a concrete access can be rendered as a single global address — the
    currency of DOMORE's shadow memory and SPECCROSS's access signatures. *)

type t

type spec =
  | Ints of string * int array  (** name, initial contents (copied) *)
  | Floats of string * float array

val create : spec list -> t

val names : t -> string list

val base : t -> string -> int
(** Base offset of an array in the flat address space. *)

val size : t -> string -> int

val get_int : t -> string -> int -> int

val set_int : t -> string -> int -> int -> unit

val get_float : t -> string -> int -> float

val set_float : t -> string -> int -> float -> unit

val is_int : t -> string -> bool
(** Whether the array holds integers (index/pattern data) rather than
    floats (value data) — the distinction {!Xinv_cache.Fingerprint} uses to
    decide which contents can influence analysis results. *)

val snapshot : t -> t
(** Deep copy (checkpointing). *)

val restore : dst:t -> src:t -> unit
(** Copy the contents of [src] (a {!snapshot} of the same layout) into
    [dst]. *)

val equal : t -> t -> bool
(** Structural equality of layout and contents (floats compared exactly). *)

val total_words : t -> int

val diff : t -> t -> (string * int) list
(** Locations (array, index) whose contents differ; empty iff {!equal}. *)

type frozen
(** An immutable copy of a memory's contents, held outside the OCaml heap
    (one [Bigarray] per array), for a reference kept for the life of the
    process. *)

val freeze : t -> frozen

val diff_frozen : frozen -> t -> (string * int) list
(** [diff_frozen (freeze a) b] is [diff a b] for the contents [a] had when
    frozen. *)

val bounds : t -> int array
(** Base offsets of all arrays in layout order (ascending) — the segment
    boundaries for per-array access signatures. *)

val to_specs : t -> spec list
(** Current contents as creation specs (layout order) — lets callers rebuild
    an extended memory. *)

val set_observer : (write:bool -> string -> int -> unit) option -> t -> unit
(** Install (or clear) an access observer: every subsequent [get_*]/[set_*]
    on this memory reports to it.  Used by {!Validate} to check that
    statement semantics stay within their declared footprints. *)

val observed : t -> bool
(** Whether an observer is installed.  Workload hot paths use this to pick
    between the raw-array fast path and the observable [get_*]/[set_*]
    route — direct array accesses bypass the observer, so they are only
    legal when this is [false]. *)

val int_data : t -> string -> int array
(** The live backing array of an int array — {e not} a copy: writes through
    it are writes to the memory.  Bypasses the observer and the per-access
    name lookup; callers must bounds-check like any OCaml array access.
    Raises if [name] holds floats. *)

val float_data : t -> string -> float array
(** The live backing array of a float array; see {!int_data}. *)
