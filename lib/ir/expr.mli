(** Integer index expressions of the loop-nest IR.

    Expressions compute array indices and scalar integer values.  They may
    read integer arrays ([Load]) — that is how irregular, input-dependent
    access patterns (index arrays, graph adjacency, particle grids) enter the
    IR, and it is exactly the part static dependence analysis cannot see
    through (Chapter 2 of the dissertation). *)

type binop = Add | Sub | Mul | Div | Mod | Min | Max

type t =
  | Const of int
  | Ivar  (** inner-loop induction variable *)
  | Ovar  (** outer-loop induction variable *)
  | Param of string  (** runtime-constant parameter *)
  | Load of string * t  (** integer-array element *)
  | Bin of binop * t * t

val compile : Memory.t -> t -> Env.t -> int
(** [compile mem e] is [e]'s value as a function of the iteration: it
    reads only [t_outer], [j_inner] and, for a [Param], [params].  Each
    [Load]'s array is looked up in [mem] once, here (raising as
    {!Memory.int_data} does), so the result is valid for [mem] only,
    including after {!Memory.restore} into it, which keeps its arrays.
    A call raises [Invalid_argument] on an out-of-range load, a division
    or modulo by zero, or an unknown parameter, evaluating a binary
    node's right operand before its left.  Loads report to an observer
    installed on [mem] ({!Memory.set_observer}). *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string

val loads : t -> (string * t) list
(** All [Load] sub-terms (array name, index expression), outermost first. *)

val uses_ivar : t -> bool

val uses_ovar : t -> bool

(** Convenience constructors. *)

val ( + ) : t -> t -> t

val ( - ) : t -> t -> t

val ( * ) : t -> t -> t

val ( mod ) : t -> t -> t

val i : t
(** [Ivar]. *)

val o : t
(** [Ovar]. *)

val c : int -> t
(** Constant. *)

val ld : string -> t -> t
(** [Load]. *)

val size : t -> int
(** Number of nodes (address-computation cost proxy for slicing). *)

val feed : (int -> unit) -> (string -> unit) -> t -> unit
(** [feed fi fs e] streams a canonical, unambiguous token sequence for the
    expression structure: constructor tags and integers to [fi], array and
    parameter names to [fs].  The traversal is deterministic and
    sharing-insensitive, so two structurally equal expressions produce the
    same stream — the hashing hook {!Xinv_cache.Fingerprint} is built on. *)
