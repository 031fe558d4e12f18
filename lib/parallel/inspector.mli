(** Inspector-Executor baseline (dissertation §2.2, Saltz et al.).

    Before each invocation, an inspector pass evaluates every iteration's
    predicted addresses (the same [computeAddr] slice DOMORE uses), builds
    the iteration dependence DAG, and assigns each iteration a wavefront
    number; iterations of one wavefront then execute concurrently, with a
    barrier between wavefronts and between invocations.  Unlike DOMORE the
    inspection is serialized with execution and no iteration crosses an
    invocation boundary. *)

val wavefronts :
  reads:Xinv_ir.Footprint.site array ->
  writes:Xinv_ir.Footprint.site array ->
  Xinv_ir.Env.t ->
  trip:int ->
  int array
(** Wavefront number (0-based topological level of the dependence DAG) per
    iteration of the invocation whose outer index is set in the
    environment, from a slice's resolved reads and writes
    ({!Xinv_ir.Slice.resolve}). *)

val run :
  ?machine:Xinv_sim.Machine.t ->
  ?obs:Xinv_obs.Recorder.t ->
  threads:int ->
  plan:Xinv_ir.Mtcg.plan ->
  Xinv_ir.Program.t ->
  Xinv_ir.Env.t ->
  Run.t
(** Simulates inspector-executor execution; mutates the environment's memory
    to the final state.  Requires the same sliceability as DOMORE (use
    {!Xinv_ir.Mtcg.generate}). *)
