(** Per-run accounting of why native domains block, by wall time.

    Engines wrap their blocking slow paths in {!timed}; the accumulated
    nanoseconds per cause flow into {!Nrun.t.stalls} and from there into
    bench rows and {!Xinv_obs.Report}'s blocked totals, so every measured
    configuration names its bottleneck (queue-empty vs barrier vs
    checker-lag …). *)

type cause = Xinv_obs.Cause.t =
  | Queue_empty
  | Queue_full
  | Sync_cond
  | Barrier_wait
  | Checker_lag
  | Throttle
  | Rally

val all : cause list

val name : cause -> string
(** {!Xinv_obs.Cause.name}: the label bench rows and reports share. *)

type t

val create : unit -> t

val add_ns : t -> cause -> int -> unit
(** Thread-safe; the buckets are padded atomics. *)

val timed :
  ?fr:Xinv_obs.Flight.t -> ?domain:int -> t -> cause -> (unit -> 'a) -> 'a
(** Charge [f]'s wall time to [cause] (exception-safe).  Wrap only blocking
    episodes — the two clock reads are noise against a backoff wait, not
    against a ring operation.  When a flight recorder [fr] is attached the
    episode is also recorded into ring [domain] as a Stall_begin/Stall_end
    pair. *)

val ns : t -> cause -> int

val to_list : t -> (string * float) list
(** Non-zero buckets as [(name, ns)], in fixed cause order. *)
