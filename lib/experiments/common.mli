(** Shared plumbing for the experiment harness. *)

val threads_axis : int list
(** 2, 4, ..., 24 — the x-axis of the dissertation's speedup figures. *)

val speedup_at :
  ?input:Xinv_workloads.Workload.input ->
  ?checkpoint_every:int ->
  ?sig_kind:[ `Range | `Segmented | `Bloom | `Exact ] ->
  Xinv_workloads.Workload.t ->
  Xinv_core.Crossinv.technique ->
  int ->
  Xinv_core.Crossinv.outcome
(** One verified run; raises [Failure] when verification fails, so a figure
    can never silently report numbers from a wrong execution. *)

type series = { label : string; points : (int * float) list }

val sweep :
  ?input:Xinv_workloads.Workload.input ->
  label:string ->
  Xinv_workloads.Workload.t ->
  Xinv_core.Crossinv.technique ->
  series
(** Speedups over the whole thread axis. *)

val render_series : title:string -> series list -> string
(** Aligned text rendering: one row per thread count, one column per series. *)

val spec_input : Xinv_workloads.Workload.t -> Xinv_workloads.Workload.input
(** The input the SPECCROSS experiments use ([Ref_spec] for CG). *)
