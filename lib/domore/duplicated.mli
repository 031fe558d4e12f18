(** Duplicated-scheduler DOMORE (dissertation §3.4, Figures 3.8/3.9).

    Every worker thread runs the scheduler code — sequential regions,
    [computeAddr], a private shadow memory, the scheduling decision — and
    executes only the iterations scheduled to itself, synchronizing through
    the shared [latestFinished] cells.  Trading redundant scheduling work for
    the absence of a dedicated scheduler thread is what lets DOMORE run
    inside the SPECCROSS framework (used for FLUIDANIMATE in Figure 5.6). *)

val run :
  ?config:Domore.config ->
  ?obs:Xinv_obs.Recorder.t ->
  plan:Xinv_ir.Mtcg.plan ->
  Xinv_ir.Program.t ->
  Xinv_ir.Env.t ->
  Xinv_parallel.Run.t
(** Workers only (no scheduler thread): simulated threads 0..workers-1. *)

val iteration_executor :
  config:Domore.config ->
  plan:Xinv_ir.Mtcg.plan ->
  cells:Xinv_sim.Mono_cell.t array ->
  shadow:Xinv_runtime.Shadow.t ->
  deps:Xinv_runtime.Shadow.Deps.t ->
  ?obs:Xinv_obs.Recorder.t ->
  iternum:int ref ->
  tid:int ->
  Xinv_ir.Env.t ->
  Xinv_ir.Program.inner ->
  unit
(** One iteration of the duplicated-scheduler protocol, exposed so the
    SPECCROSS executor can drive DOMORE-scheduled invocations: pays the
    duplicated scheduling cost, and if the iteration belongs to [tid], waits
    on its synchronization conditions, executes the body, and publishes
    completion.  [shadow] must be the calling thread's private copy;
    [iternum] the thread's private combined iteration counter; [deps] its
    scratch accumulator.  The scheduling step itself is {!Policy.assign}. *)
