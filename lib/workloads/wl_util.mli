(** Shared helpers for workload construction. *)

val hash01 : int -> int -> int -> float
(** [hash01 salt t j] is a deterministic pseudo-random float in [\[0, 1)]. *)

val jittered : base:float -> ?spread:float -> salt:int -> Xinv_ir.Env.t -> float
(** Cost model: [base * (1 +- spread)], deterministic per (outer, inner)
    iteration.  Default spread 0.5 — load imbalance is what makes barriers
    expensive. *)

val mix : float -> float -> float
(** Order-sensitive exact float update: [mix x k = (3x + k) mod 2^20].  Both
    operations are exact in double precision, so any reordering of dependent
    updates changes the final bits — the property the correctness tests
    rely on. *)

val distinct_ints : Xinv_util.Prng.t -> bound:int -> n:int -> int array
(** [n] distinct values below [bound]. *)

val permutation : Xinv_util.Prng.t -> int -> int array

val modulus : float
(** The modulus used by {!mix} (2^20). *)

val memo : (Xinv_ir.Memory.t -> 'a) -> Xinv_ir.Memory.t -> 'a
(** [memo resolve] caches [resolve mem] keyed on the {e physical identity}
    of [mem] (one slot, refilled whenever a different memory shows up).
    Workloads use it to resolve {!Xinv_ir.Memory.float_data} handles once
    per run instead of once per access; [resolve] must be pure.  Thread-safe
    — concurrent refills just recompute the same value. *)

val index : Xinv_ir.Expr.t -> Xinv_ir.Env.t -> int
(** [index e] evaluates [e] in an iteration's environment, compiled once
    per memory ({!Xinv_ir.Expr.compile} through {!memo}).  Apply it to [e]
    when building the program, not inside an exec closure. *)

val memo_by : ('i -> 'k) -> ('i -> 'p) -> 'i -> 'p
(** [memo_by key build] is [build], except that inputs with equal [key]s
    share the value built for the first of them: a workload builds one
    program object, with one set of statement ids, per input size.  The
    table is locked, so callers on several domains share one value per
    key too. *)
