(** Work model for native runs.

    Workload statement bodies execute a handful of float operations — real
    but far lighter than the kernels whose cost model they carry
    ({!Xinv_ir.Stmt.cost} in simulated cycles).  For wall-clock scaling
    measurements each statement additionally burns CPU proportional to its
    modeled cost, so the compute/runtime-overhead ratio matches the cost
    model instead of being dominated by queue traffic.  [Off] (the default
    everywhere except the benchmark) runs the bare statement semantics. *)

type t =
  | Off
  | Spin of float
      (** nanoseconds of real compute per simulated cycle of statement cost *)

val calibrated_spin : ns_per_cycle:float -> t
(** [Spin] with the spin loop calibrated (once, lazily) against the
    monotonic clock so [burn] converts cycles to approximate nanoseconds. *)

val burn : t -> float -> unit
(** [burn w cycles] consumes CPU for roughly [cycles] times the configured
    factor.  [Off] is free.  Safe to call concurrently from any domain. *)

val exec : t -> Xinv_ir.Env.t -> Xinv_ir.Stmt.t -> unit
(** Execute one statement natively: burn its modeled cost, then run its
    semantics.  Every native engine executes statements through this; the
    LOCALWRITE traversal in {!Nbarrier}, which burns on every worker but
    applies the semantics once, is the only other [burn] site. *)
