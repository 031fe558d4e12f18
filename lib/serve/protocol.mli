(** [xinv-serve/1] message vocabulary: what a client can ask
    ({!client_msg}) and what the daemon answers ({!server_msg}), with
    frame-level codecs over {!Wire}.

    Tags: client frames use 1–4 (Run, Ping, Stats, Shutdown); server
    frames use 64–68 (Outcome, Rejected, Failed, Pong, Stats_reply) and 70
    (Shutdown_ack).  Client tag 5 and server tag 69 carried daemon-side
    tuning and are retired (tune with [xinv tune --cache rw] on the
    daemon's cache directory instead).  A decoder presented with a retired
    tag, the other side's tag or any unknown tag raises
    [Wire.Error (Bad_tag _)]; the daemon answers such a frame with one
    [Rejected (Bad_request _)]. *)

type client_msg =
  | Run of Request.t
  | Ping
  | Stats
  | Shutdown

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
          none (verify off) *)
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
  o_tasks : int;  (** inner-loop iterations the run executed, on either backend *)
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

type server_msg =
  | Outcome of summary
  | Rejected of reject_reason
  | Failed of string
      (** the run raised; payload is a [Failure]'s message (e.g. a
          refusal), otherwise the exception's printed form *)
  | Pong of pong
  | Stats_reply of Xinv_obs.Snapshot.t
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
