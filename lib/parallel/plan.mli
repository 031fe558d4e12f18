(** Parallelization planning: pick an intra-invocation technique per inner
    loop (Table 5.1's plans), and SPECCROSS's sequential-region rule.
    Whether a technique may run a workload is decided in one place,
    [Xinv_core.Crossinv.applicable], which [run_request] enforces; it
    reads a workload's stored plan and this module's
    {!speccross_sequential_regions}.

    The automatic rules mirror the dissertation's pipeline: DOALL when static
    analysis proves iterations independent; DOANY when the only conflicting
    statements commute; Spec-DOALL when conflicts are possible statically but
    profiling shows none manifest within invocations; LOCALWRITE when
    irregular writes partition by owner. *)

type choice = {
  label : string;
  technique : Intra.technique;
  reason : string;
}

val choose :
  ?profile:Xinv_ir.Profile.result ->
  Xinv_ir.Program.t ->
  choice list
(** One choice per inner loop, or raises [Failure] when some inner loop
    cannot be handled by any of the four techniques. *)

val speccross_sequential_regions : Xinv_ir.Program.t -> (unit, string) result
(** SPECCROSS runs each invocation's sequential ([pre]) region on every
    worker, outside any signature, so no [pre] statement may write memory:
    the error names the first that does. *)
