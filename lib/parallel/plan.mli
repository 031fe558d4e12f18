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

val speccross_applicable : Xinv_ir.Program.t -> (unit, string) result
(** SPECCROSS preconditions (dissertation §4.3): every inner loop
    parallelizable non-speculatively, sequential code privatizable (no
    side-effecting pre statements), no irreversible operations in bodies. *)

val domore_applicable : Xinv_ir.Program.t -> Xinv_ir.Env.t -> (unit, string) result
(** DOMORE preconditions: the MTCG pipeline succeeds (partition, slice,
    performance guard). *)
