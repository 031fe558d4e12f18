(** Thread-level speculation baseline (dissertation §2.2, Figure 2.8).

    Iterations of one invocation execute speculatively in parallel and commit
    in order: a committing iteration validates its predicted read set against
    writes committed while it was in flight, and re-executes on violation.
    Semantics are applied at commit time (in order), so results are always
    exact; misspeculation costs re-execution time.  Barriers still separate
    invocations — TLS is intra-invocation only. *)

val run :
  ?machine:Xinv_sim.Machine.t ->
  ?obs:Xinv_obs.Recorder.t ->
  threads:int ->
  plan:Xinv_ir.Mtcg.plan ->
  Xinv_ir.Program.t ->
  Xinv_ir.Env.t ->
  Run.t
(** [Run.misspecs] counts squashed-and-retried iterations.  Requires the
    same address slice as DOMORE ({!Xinv_ir.Mtcg.generate}). *)
