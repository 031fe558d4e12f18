(** A serializable run request — the unit of work submitted to the serve
    daemon.

    The record is five things: the workload by registry name, its input,
    the run's execution axes as one {!Xinv_cache.Policy.t} (backend,
    technique, threads, grain, batch, signature, speculative distance,
    checkpoint interval — the same data-only record the autotuner searches
    and the cache stores), the run flags (tuned-policy lookup,
    verification, cache mode, fault injection), and the scheduling
    envelope the in-process API has no use for (deadline, priority,
    tenant).  Everything in it survives a socket.  {!to_crossinv} resolves
    it against the live registry through
    {!Xinv_core.Crossinv.Request.apply_policy} — the one mapping from a
    policy to a core request — after the daemon's own pool, cache
    directory and cancellation hook have been attached. *)

type workload = [ `Name of string  (** registry lookup, case-insensitive *) ]

type t = {
  workload : workload;
  input : Xinv_workloads.Workload.input;
  axes : Xinv_cache.Policy.t;
      (** the execution axes; [domains] is the thread count and [technique]
          the {!Xinv_core.Crossinv.technique_name} spelling *)
  policy : [ `Fixed | `Auto ];
      (** [`Auto] lets a tuned policy from the analysis cache override
          [axes] *)
  verify : bool;
  cache : [ `Off | `Ro | `Rw ];
      (** intersected with the daemon's cache mode: a request can opt
          down (e.g. [`Off]) but never escalate past the server config *)
  fault : string option;
      (** native fault injection in {!Xinv_native.Fault.spec_to_string}
          spelling — how tests and CI provoke stalls and failures through
          the daemon; parsed at resolution, [`Bad_request] if malformed *)
  deadline_ms : float option;
      (** end-to-end budget from submission, queue wait included *)
  priority : [ `High | `Normal ];
  tenant : string;
}

val make :
  ?input:Xinv_workloads.Workload.input ->
  ?backend:[ `Sim | `Native ] ->
  ?technique:string ->
  ?threads:int ->
  ?policy:[ `Fixed | `Auto ] ->
  ?grain:int ->
  ?batch:int ->
  ?sig_kind:[ `Range | `Segmented | `Bloom | `Exact ] ->
  ?spec_distance:int ->
  ?checkpoint_every:int ->
  ?verify:bool ->
  ?cache:[ `Off | `Ro | `Rw ] ->
  ?fault:string ->
  ?deadline_ms:float ->
  ?priority:[ `High | `Normal ] ->
  ?tenant:string ->
  workload ->
  t
(** Labelled constructor.  Omitted axes come from
    {!Xinv_cache.Policy.default}, except the backend, which defaults to
    [`Sim] like {!Xinv_core.Crossinv.Request.make}.  Other defaults: [Ref]
    input, [`Fixed] policy, verify on, cache off, no fault, no deadline,
    [`Normal] priority, tenant ["default"]. *)

val put : Wire.writer -> t -> unit
val get : Wire.reader -> t
(** Payload codec (raises {!Wire.Error} on malformed input).  An absent
    signature on the wire decodes as {!Xinv_cache.Policy.default}'s. *)

type resolve_error =
  [ `Unknown_workload of string
  | `Bad_request of string
    (** unparsable technique or fault spec, non-positive thread count *) ]

val to_crossinv :
  ?obs:Xinv_obs.Recorder.t ->
  ?pool:Xinv_native.Pool.t ->
  ?cache_dir:string ->
  ?cache_limit:[ `Off | `Ro | `Rw ] ->
  ?deadline_ms:float ->
  ?on_watchdog:(Xinv_native.Watchdog.t -> unit) ->
  t ->
  (Xinv_core.Crossinv.Request.t, resolve_error) result
(** Resolve against the live registry: the daemon's environment on a
    {!Xinv_core.Crossinv.Request.make} request, then
    {!Xinv_core.Crossinv.Request.apply_policy} of [axes], then the
    request's [policy].  [deadline_ms] is the {e remaining} budget the
    scheduler computed (the request's own [deadline_ms] minus queue
    wait); [cache_limit] caps the request's cache mode ([`Rw] > [`Ro] >
    [`Off]); the native pool, watchdog hook and recorder are the
    daemon's and reach only a native run. *)
