(** A serializable run request — the unit of work submitted to the serve
    daemon, and the wire twin of {!Xinv_core.Crossinv.Request.t}.

    Where the core record holds live values (a workload descriptor full of
    closures, a recorder, a domain pool), this one holds only data that
    survives a socket: the workload by registry name, the technique by
    {!Xinv_core.Crossinv.technique_name} spelling, and scheduling fields
    the in-process API has no use for (deadline, priority, tenant).
    {!to_crossinv} resolves it against the live registry into a core
    request; the daemon injects its own shared pool, cache directory and
    cancellation hook at that point. *)

type workload = [ `Name of string  (** registry lookup, case-insensitive *) ]

type t = {
  workload : workload;
  input : Xinv_workloads.Workload.input;
  backend : [ `Sim | `Native ];
  technique : string;  (** {!Xinv_core.Crossinv.technique_name} spelling *)
  threads : int;
  policy : [ `Fixed | `Auto ];
  grain : int;
  batch : int;
  sig_kind : [ `Range | `Segmented | `Bloom | `Exact ] option;
  spec_distance : int option;
  checkpoint_every : int;
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
(** {!to_crossinv} of the result equals
    {!Xinv_core.Crossinv.Request.make} with the same arguments (sim
    backend, [Ref] input, checkpoint every 1000, verify on, cache off,
    fixed policy; native grain and batch from
    {!Xinv_core.Crossinv.native_defaults}), which the test suite checks
    field by field.  Serve-side defaults: technique ["sequential"], 1
    thread, no deadline, [`Normal] priority, tenant ["default"]. *)

val put : Wire.writer -> t -> unit
val get : Wire.reader -> t
(** Payload codec (raises {!Wire.Error} on malformed input). *)

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
(** Resolve against the live registry.  [deadline_ms] is the
    {e remaining} budget the scheduler computed (the request's own
    [deadline_ms] minus queue wait); [cache_limit] caps the request's
    cache mode ([`Rw] > [`Ro] > [`Off]); the native pool, watchdog hook
    and recorder are the daemon's. *)

val describe : t -> string
(** One-line human rendering for logs. *)
