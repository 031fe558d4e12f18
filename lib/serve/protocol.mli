(** [xinv-serve/1] message vocabulary: what a client can ask
    ({!client_msg}) and what the daemon answers ({!server_msg}), with
    frame-level codecs over {!Wire}.

    Tags: client frames use 1–5 (Run, Ping, Stats, Shutdown, Tune);
    server frames use 64–70 (Outcome, Rejected, Failed, Pong,
    Stats_reply, Tune_reply, Shutdown_ack).  A decoder presented with the
    other side's tag — or any unknown tag — raises
    [Wire.Error (Bad_tag _)]. *)

type tune_req = {
  t_workload : string;  (** registry name *)
  t_input : Xinv_workloads.Workload.input;
  t_budget : int;
  t_seed : int;
  t_max_domains : int option;
  t_strategy : string;  (** {!Xinv_tune.Search.strategy_name} spelling *)
  t_priority : [ `High | `Normal ];
  t_tenant : string;
}

val tune_req :
  ?input:Xinv_workloads.Workload.input ->
  ?budget:int ->
  ?seed:int ->
  ?max_domains:int ->
  ?strategy:string ->
  ?priority:[ `High | `Normal ] ->
  ?tenant:string ->
  string ->
  tune_req

type client_msg =
  | Run of Request.t
  | Ping
  | Stats
  | Shutdown
  | Tune of tune_req

type reject_reason =
  | Queue_full of int  (** payload: the queue capacity *)
  | Unknown_workload of string
  | Bad_request of string
  | Shutting_down
  | Deadline_exceeded
      (** the end-to-end deadline expired while the request was queued *)
  | Cancelled  (** the submitting client disconnected *)

val reject_to_string : reject_reason -> string

(** The outcome fields that survive a socket — everything scalar from
    {!Xinv_core.Crossinv.outcome}, plus the daemon-side queue wait. *)
type summary = {
  o_workload : string;
  o_technique : string;  (** executed (after degradation) *)
  o_cost_kind : [ `Cycles | `Wall_ns ];
  o_cost : float;
  o_seq_cost : float;
      (** the sequential baseline's cost, or [nan] when the run measured
          none (verify off, no adaptive controller) *)
  o_speedup : float;  (** [nan] exactly when [o_seq_cost] is *)
  o_verified : bool;
      (** [false] only when a check ran and found a mismatch; [true] when
          verify was off *)
  o_mismatches : int;
  o_degraded : (string * string * string) list;  (** from, to, reason *)
  o_analysis_ns : float;
  o_cache_hits : int;
  o_cache_misses : int;
  o_policy_source : string;
  o_tasks : int;  (** native run tasks; 0 on the sim backend *)
  o_queue_wait_ns : float;
}

val summary_of_outcome :
  workload:string ->
  queue_wait_ns:float ->
  Xinv_core.Crossinv.outcome ->
  summary
(** An outcome without a baseline ([seq_cost = None]) keeps the wire
    layout: [o_seq_cost] and [o_speedup] carry [nan]. *)

type pong = {
  p_uptime_ns : float;
  p_pool_domains : int;
  p_pool_creates : int;
  p_queued : int;
  p_served : int;
}

type tune_reply = {
  r_policy_key : string;
  r_wall_ns : float;
  r_seq_wall_ns : float;
  r_trials : int;
  r_source : string;  (** ["cached"] or ["searched"] *)
}

type server_msg =
  | Outcome of summary
  | Rejected of reject_reason
  | Failed of string  (** the run raised; payload is the exception text *)
  | Pong of pong
  | Stats_reply of Xinv_obs.Snapshot.t
  | Tune_reply of tune_reply
  | Shutdown_ack of { served : int }

val encode_client : client_msg -> string
(** A full wire frame. *)

val decode_client : string -> client_msg
(** Raises {!Wire.Error} on any malformation. *)

val encode_server : server_msg -> string
val decode_server : string -> server_msg

val send_client : Unix.file_descr -> client_msg -> unit
val recv_client : Unix.file_descr -> client_msg
val send_server : Unix.file_descr -> server_msg -> unit
val recv_server : Unix.file_descr -> server_msg

val pp_server : Format.formatter -> server_msg -> unit
(** Human rendering for the CLI client.  An outcome without a baseline
    shows [seq cost  not measured (verify off)] and no speedup line. *)
