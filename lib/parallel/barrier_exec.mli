(** The pthread-barrier parallel execution model (dissertation Figure 1.3b).

    Every worker thread runs the outer loop; each inner-loop invocation is
    parallelized with the technique the plan assigns to it; a global barrier
    separates consecutive invocations.  This is the baseline all of the
    dissertation's speedup figures compare against ("Pthread Barrier"). *)

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
    inner-loop label to its technique.  With [?obs], barrier releases and
    stall episodes are logged; the run's barrier episodes are counted in
    [Run.barrier_episodes].  Recording consumes no virtual time, so the run
    is bit-identical with and without it. *)
