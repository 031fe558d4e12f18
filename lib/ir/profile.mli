(** Runtime dependence profiler.

    Executes the region sequentially while observing every concrete memory
    access, and summarises which statement pairs' dependences actually
    manifest, within an invocation or across invocations, in how many outer
    iterations, and with what minimum task distance.  SPECCROSS's profiling
    mode (dissertation §4.4, Table 5.3) reads the distance through
    [Xinv_speccross.Profiler]; [Xinv_parallel.Plan.choose ~profile] reads
    the within-invocation counts.  Each address's last read and last write
    live in tables indexed by flat address ({!Memory.total_words}). *)

type pair_stat = {
  within : int;  (** within-invocation dependence events *)
  outers : int;
      (** distinct outer iterations in which a cross-invocation dependence
          manifested *)
}

type result = {
  pairs : ((int * int) * pair_stat) list;
      (** per (src_sid, dst_sid) summary, sorted by key *)
  min_task_distance : int option;
      (** minimum [dst_task - src_task] over cross-invocation body-to-body
          dependences; [None] when no such dependence manifested *)
  total_tasks : int;
  total_invocations : int;
}

val run : Program.t -> Env.t -> result
(** Profiles a fresh sequential execution (mutates the environment's
    memory). *)

val manifest_rate : result -> Program.t -> src_sid:int -> dst_sid:int -> float
(** Fraction of outer iterations (beyond the first) in which the pair's
    cross-invocation dependence manifested — e.g. 0.724 for CG's update
    dependence in Figure 3.1. *)
