(** Small numeric helpers for reporting experiment results. *)

val mean : float list -> float
(** Arithmetic mean; 0. on the empty list. *)

val geomean : float list -> float
(** Geometric mean; 0. on the empty list.  All inputs must be positive. *)
