(** The pthread-barrier parallel execution model (dissertation Figure 1.3b).

    Every worker thread runs the outer loop; each inner-loop invocation is
    parallelized with the technique the plan assigns to it; a global barrier
    separates consecutive invocations.  This is the baseline all of the
    dissertation's speedup figures compare against ("Pthread Barrier").

    {!region} is that invocation loop on its own.  The previous-work
    baselines ({!Doacross}, {!Dswp}, {!Inspector}, {!Tls}) share it and
    supply only what one thread does inside one invocation. *)

type invocation = {
  tid : int;  (** the worker thread, [0 .. threads - 1] *)
  outer : int;  (** outer-loop iteration *)
  index : int;  (** position of the inner loop in {!Xinv_ir.Program.inners} *)
  inner : Xinv_ir.Program.inner;
  env : Xinv_ir.Env.t;  (** the outer iteration's environment *)
  trip : int;  (** the invocation's iteration count *)
  work_factor : float;  (** {!Xinv_sim.Machine.work_factor} at the run's width *)
  sync : unit -> unit;
      (** an extra barrier inside the invocation, recorded like the one
          that ends it; every thread must call it equally often *)
}

val region :
  ?machine:Xinv_sim.Machine.t ->
  ?trace:bool ->
  ?obs:Xinv_obs.Recorder.t ->
  threads:int ->
  track:string ->
  technique:string ->
  Xinv_ir.Program.t ->
  Xinv_ir.Env.t ->
  (invocation -> unit) ->
  Run.t
(** [region ~threads ~track ~technique p env share] simulates [threads]
    workers (named [track ^ tid]) walking outer x inner.  Per invocation,
    thread 0 runs the pre-region's semantics and every thread charges its
    cost scaled by the work factor (Sequential on thread 0, Redundant on
    the others); then each thread runs [share] and waits at the barrier
    that ends the invocation.  The run counts tasks, invocations and
    barrier episodes.  With [?obs], each barrier logs a {!Xinv_obs.Cause.Barrier_wait}
    stall and a barrier release per thread; recording consumes no virtual
    time, so the run is bit-identical with and without it. *)

val commit_cells : Xinv_ir.Program.t -> invocation -> Xinv_sim.Mono_cell.t
(** [commit_cells p] allocates one progress cell (initially [-1]) per
    invocation occurrence of [p] and returns the lookup. *)

val run :
  ?machine:Xinv_sim.Machine.t ->
  ?nlocks:int ->
  ?trace:bool ->
  ?obs:Xinv_obs.Recorder.t ->
  threads:int ->
  plan:(string -> Intra.technique) ->
  Xinv_ir.Program.t ->
  Xinv_ir.Env.t ->
  Run.t
(** [run ~threads ~plan p env] simulates the barrier-parallel execution,
    mutating [env]'s memory to the final program state.  [plan] maps an
    inner-loop label to its technique. *)
