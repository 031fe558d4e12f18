(** A single array access: base array plus index expression. *)

type t = { base : string; index : Expr.t }

val make : string -> Expr.t -> t

val pp : Format.formatter -> t -> unit

val affine : t -> Affine.t option

val irregular : t -> bool
(** True when the index is not affine (the runtime techniques' target). *)

val may_conflict : t -> t -> bool
(** Conservative may-overlap test ignoring iteration bounds: same base and
    either one side irregular or the affine indices can coincide for some
    iteration vectors. *)

val same_iteration_only : t -> t -> bool
(** Precise static guarantee that two same-invocation accesses can only
    touch the same cell within one iteration (DOALL-legality test). *)

val feed : (int -> unit) -> (string -> unit) -> t -> unit
(** Canonical token stream of the access (see {!Expr.feed}): a tag to [fi],
    the base array to [fs], then the index expression. *)
