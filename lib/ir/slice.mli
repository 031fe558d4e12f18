(** [computeAddr] generation by program slicing (dissertation Algorithm 3).

    From the worker statements' access expressions, extract the instructions
    the scheduler must duplicate to predict every address an iteration will
    touch.  The transformation aborts when the slice would read state the
    workers themselves update (the Figure 4.1 limitation), or would have side
    effects; a separate performance guard compares slice cost against worker
    cost (the scheduler/worker ratio of Table 5.2).

    A slice names arrays and index expressions; it holds no memory.  An
    executor {!resolve}s its [reads] and [writes] against the run's memory
    once and evaluates the resulting {!Footprint.site}s per iteration. *)

type t = {
  accesses : Access.t list;  (** per-iteration addresses to precompute *)
  reads : Access.t list;  (** the subset that are read *)
  writes : Access.t list;  (** the subset that are written *)
  index_arrays : string list;  (** arrays loaded by the slice *)
  node_count : int;  (** expression nodes duplicated into the scheduler *)
}

type verdict = Sliceable of t | Inapplicable of string

val compute_addr : Partition.t -> Pdg.t -> verdict
(** Region-wide slice: used for the taint check, the performance guard and
    reporting.  Executors should predict a single iteration's addresses with
    the per-inner slice from {!of_stmts}. *)

val of_stmts : Stmt.t list -> t
(** Slice over the given statements only (no applicability checks) — the
    per-inner-loop [computeAddr] the scheduler evaluates for one
    iteration. *)

val cost_per_iter : t -> float
(** Estimated scheduler cycles to evaluate the slice for one iteration. *)

val guard_ratio : t -> Program.t -> Env.t -> float
(** [cost_per_iter / average worker-iteration cost], sampled over the first
    invocations; DOMORE is reported inapplicable when this is close to 1. *)

val resolve : t -> Memory.t -> Footprint.site array * Footprint.site array
(** [reads] and [writes] resolved against a memory layout, once per run. *)
