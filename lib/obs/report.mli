(** The one run analyzer of both backends.

    Built from the same inputs on the simulator and on real domains: the
    run's {!Flight.entry} stream, its clock, one name per track (thread or
    domain), the per-cause blocked totals and the metrics registry.  It
    derives what the dissertation's evaluation argues with — utilization,
    blocked time by {!Cause}, the dominant stall and a one-line bottleneck
    verdict, the longest dispatch→sync→commit chain and queue occupancy —
    and renders it as text, as the [xinv-stats/4] JSON document and as
    CSV.

    A run's totals (tasks, sync conditions, epochs, checks, recoveries,
    checkpoints, barrier crossings) are not tallied here: the engine
    counts each once, and the report lists them in [counters] under the
    run counters' names.  Entries only describe time and order, so a ring
    that drops some changes no total. *)

type thread_report = {
  tid : int;
  thread_name : string;
  events : int;  (** entries recorded on this track *)
  work : float;
      (** useful work: the engine's Work + Sequential charges on the sim,
          makespan minus blocked time where no charges exist *)
  stall : float;  (** blocked time, from this track's stall-end entries *)
  utilization : float;  (** work / makespan *)
  dominant : Cause.t option;  (** this track's largest stall cause *)
}

type percentiles = { p50 : float; p90 : float; p99 : float; pmax : float }

type t = {
  backend : string;  (** ["sim"] or ["native"] *)
  clock : Flight.clock;  (** unit of every time below *)
  makespan : float;
  threads : int;  (** tracks *)
  utilization : float;  (** total work / (threads * makespan) *)
  per_thread : thread_report list;
  stall_by_cause : (Cause.t * float) list;
      (** blocked time only, every cause in {!Cause.all} order *)
  dominant_stall : Cause.t option;  (** the largest entry of [stall_by_cause] *)
  bottleneck : string;  (** one-line verdict naming the dominant stall or compute *)
  chain : int;  (** edges on the longest dispatch→sync→commit chain *)
  chain_span : float;  (** time that chain spans *)
  events_logged : int;  (** entries analyzed *)
  drops : int;  (** entries lost to ring overwrite before analysis *)
  queue_occupancy : percentiles option;  (** from [Queue_sample] entries *)
  counters : (string * int) list;  (** the run counters, as given *)
  gauges : (string * float) list;
}

val build :
  backend:string ->
  clock:Flight.clock ->
  makespan:float ->
  tracks:string array ->
  ?work:float array ->
  ?blocked:(string * float) list ->
  ?counters:(string * int) list ->
  ?gauges:(string * float) list ->
  ?drops:int ->
  Flight.entry list ->
  t
(** Every entry's domain must index [tracks].  [work] gives per-track
    useful work (default: makespan minus the track's blocked time).
    [blocked] gives authoritative per-cause totals keyed by {!Cause.name}
    (the native Stallcat accounting, which a drop-oldest ring can
    undercount); by default they are the sums of the stall-end entries. *)

val of_flight :
  ?wall_ns:float ->
  ?blocked:(string * float) list ->
  ?counters:(string * int) list ->
  ?gauges:(string * float) list ->
  Flight.t ->
  t
(** {!build} over a native recording: one ["domain N"] track per ring,
    nanosecond clock, makespan [wall_ns] (default: the recording's elapsed
    time). *)

val percentile : float array -> float -> float
(** [percentile sorted q] is the nearest-rank [q]-quantile ([0 < q <= 1])
    of an ascending array; 0 when empty. *)

val pp : Format.formatter -> t -> unit

val to_json : t -> string
(** The [xinv-stats/4] document (see EXPERIMENTS.md). *)

val to_csv : t -> string
(** Flat [key,value] lines covering the same scalar fields as the JSON. *)
