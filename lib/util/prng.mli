(** Deterministic splittable pseudo-random number generator (splitmix64).

    Every source of randomness in the repository flows through this module so
    that simulations, workload generation and property tests are reproducible
    from a single seed. *)

type t

val create : seed:int -> t

val split : t -> t
(** [split t] derives an independent stream; [t] advances. *)

val copy : t -> t

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val chance : t -> float -> bool
(** [chance t p] is true with probability [p]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
