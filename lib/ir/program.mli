(** Loop-nest programs: an outer loop of consecutive inner-loop invocations.

    This is the program shape both DOMORE and SPECCROSS target (Figures 1.3,
    3.1, 4.2 of the dissertation): an outer loop that executes a sequence of
    parallelizable inner loops, with sequential code in between, repeated
    [outer_trip] times.  One execution of one inner loop is an
    {e invocation}; one inner-loop index value is an {e iteration}. *)

type inner = {
  ilabel : string;
  trip : Env.t -> int;  (** iteration count; may depend on the outer index and memory *)
  pre : Stmt.t list;  (** sequential statements executed before each invocation *)
  body : Stmt.t list;  (** statements of one inner-loop iteration *)
}

type t = {
  pname : string;
  outer_trip : int;
  inners : inner list;
}

val make : name:string -> outer_trip:int -> inner list -> t

val inner : ?pre:Stmt.t list -> label:string -> trip:(Env.t -> int) -> Stmt.t list -> inner

val const_trip : int -> Env.t -> int

val all_stmts : t -> Stmt.t list
(** Every statement of the region, in program order. *)

val body_stmts : t -> Stmt.t list

val find_inner : t -> string -> inner

val iteration_cost : t -> inner -> Env.t -> float
(** Total cost of one inner iteration in context [env]. *)

val invocations : t -> int
(** [outer_trip * #inners]: number of inner-loop invocations executed. *)

val total_iterations : t -> Env.t -> int
(** Dynamic count of inner iterations over the whole region; evaluates trip
    counts against the (unmodified) environment for each outer index. *)

val feed_structure : (int -> unit) -> (string -> unit) -> t -> unit
(** Canonical token stream of the whole region's static structure: outer
    trip count, per-inner pre/body statement structures in program order
    (see {!Stmt.feed_structure}).  Excludes [pname] and inner labels —
    fingerprints are insensitive to name choices.  Trip-count and cost
    closures are excluded here and covered by probe evaluation in
    {!Xinv_cache.Fingerprint}. *)

val pp : Format.formatter -> t -> unit
