(** Result of one simulated parallel execution of a region. *)

type t = {
  technique : string;
  threads : int;  (** worker threads (excluding scheduler/checker helpers) *)
  makespan : float;  (** virtual time from region start to completion *)
  engine : Xinv_sim.Engine.t;  (** retained for per-category accounting *)
  tasks : int;
      (** inner-loop iterations executed (first try); for SPECCROSS, the
          region's iteration count, however often recovery redid some *)
  invocations : int;
  barrier_episodes : int;
  checks : int;  (** speculation checking requests processed *)
  misspecs : int;  (** misspeculation recoveries *)
  checkpoints : int;  (** SPECCROSS checkpoints taken, the initial one included *)
  epochs_redone : int;  (** epochs SPECCROSS recoveries re-executed *)
  recovery_time : int;  (** cycles inside SPECCROSS recoveries *)
  signatures_compared : int;  (** signatures the SPECCROSS checker compared *)
  recorder : Xinv_obs.Recorder.t option;
      (** the observability recorder the run was instrumented with, if any *)
}

val make :
  technique:string ->
  threads:int ->
  makespan:float ->
  engine:Xinv_sim.Engine.t ->
  ?tasks:int ->
  ?invocations:int ->
  ?barrier_episodes:int ->
  ?checks:int ->
  ?misspecs:int ->
  ?checkpoints:int ->
  ?epochs_redone:int ->
  ?recovery_time:int ->
  ?signatures_compared:int ->
  ?recorder:Xinv_obs.Recorder.t ->
  unit ->
  t

val speedup : seq_cost:float -> t -> float

val category_total : t -> Xinv_sim.Category.t -> float

val barrier_overhead_pct : t -> float
(** Share of all cores' time spent at barriers: Figure 4.3's metric. *)

val utilization : t -> float
(** Fraction of [threads * makespan] charged to useful work. *)

val tracks : t -> string array
(** One name per engine thread. *)

val entries : t -> Xinv_obs.Flight.entry list
(** The run events the recorder logged, if the run carried one. *)

val report : ?counters:(string * int) list -> t -> Xinv_obs.Report.t
(** {!Xinv_obs.Report.build} over the run's entries, cycle clock, with the
    engine's Work + Sequential charges as per-thread work.  [counters]
    (default: the recorder's) are the run counters the report lists. *)

val pp : Format.formatter -> t -> unit
