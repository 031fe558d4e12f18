(** Parallelization planning: pick an intra-invocation technique per inner
    loop and decide DOMORE / SPECCROSS applicability (Table 5.1).

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

val speccross_applicable : Xinv_ir.Program.t -> (unit, string) result
(** SPECCROSS preconditions (dissertation §4.3): sequential regions that
    write no memory ({!speccross_sequential_regions}) and every inner loop
    parallelizable non-speculatively.  Irreversible statements are legal:
    their epochs execute non-speculatively between checkpoints (§4.2.2). *)

val domore_applicable : Xinv_ir.Program.t -> Xinv_ir.Env.t -> (unit, string) result
(** DOMORE preconditions: the MTCG pipeline succeeds (partition, slice,
    performance guard). *)
