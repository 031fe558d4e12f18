(** Result of one native (real-domain) execution — the wall-clock
    counterpart of {!Xinv_parallel.Run.t}, which reports virtual time. *)

type t = {
  technique : string;
  domains : int;  (** total domains used, including scheduler/checker roles *)
  workers : int;  (** domains executing loop iterations *)
  wall_ns : float;  (** monotonic wall-clock duration of the region *)
  tasks : int;
      (** loop iterations executed (first attempt; redo excluded); for
          SPECCROSS, the region's iteration count *)
  invocations : int;
  conds : int;  (** DOMORE sync conditions forwarded *)
  checks : int;  (** SPECCROSS signature requests submitted *)
  misspecs : int;
  barrier_episodes : int;
  checkpoints : int;  (** SPECCROSS checkpoints taken, the initial one included *)
  epochs_redone : int;  (** epochs SPECCROSS recoveries re-executed *)
  recovery_time : int;  (** nanoseconds inside SPECCROSS recoveries *)
  signatures_compared : int;  (** signatures the SPECCROSS checker compared *)
  stalls : (string * float) list;
      (** blocked wall-ns by cause ({!Stallcat}); names the run's bottleneck *)
}

val make :
  technique:string ->
  domains:int ->
  workers:int ->
  wall_ns:float ->
  tasks:int ->
  invocations:int ->
  ?conds:int ->
  ?checks:int ->
  ?misspecs:int ->
  ?barrier_episodes:int ->
  ?checkpoints:int ->
  ?epochs_redone:int ->
  ?recovery_time:int ->
  ?signatures_compared:int ->
  ?stalls:(string * float) list ->
  unit ->
  t

val timed : (unit -> unit) -> float
(** Wall-clock nanoseconds the thunk took. *)

val speedup : seq_wall_ns:float -> t -> float

val pp : Format.formatter -> t -> unit
