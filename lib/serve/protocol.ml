module Cx = Xinv_core.Crossinv
module Snapshot = Xinv_obs.Snapshot

type client_msg =
  | Run of Request.t
  | Ping
  | Stats
  | Shutdown

type reject_reason =
  | Queue_full of int
  | Unknown_workload of string
  | Bad_request of string
  | Shutting_down
  | Deadline_exceeded
  | Cancelled

let reject_to_string = function
  | Queue_full cap -> Printf.sprintf "queue full (capacity %d)" cap
  | Unknown_workload n -> "unknown workload " ^ n
  | Bad_request r -> "bad request: " ^ r
  | Shutting_down -> "daemon shutting down"
  | Deadline_exceeded -> "deadline exceeded while queued"
  | Cancelled -> "cancelled (client disconnected)"

type summary = {
  o_workload : string;
  o_technique : string;
  o_cost_kind : [ `Cycles | `Wall_ns ];
  o_cost : float;
  o_seq_cost : float;
  o_speedup : float;
  o_verified : bool;
  o_mismatches : int;
  o_degraded : (string * string * string) list;
  o_analysis_ns : float;
  o_cache_hits : int;
  o_cache_misses : int;
  o_policy_source : string;
  o_tasks : int;
  o_queue_wait_ns : float;
}

let summary_of_outcome ~workload ~queue_wait_ns (o : Cx.outcome) =
  {
    o_workload = workload;
    o_technique = Cx.technique_name o.Cx.technique;
    o_cost_kind =
      (match o.Cx.cost with Cx.Sim_cycles _ -> `Cycles | Cx.Wall_ns _ -> `Wall_ns);
    o_cost = Cx.cost_value o.Cx.cost;
    o_seq_cost = Option.fold ~none:Float.nan ~some:Cx.cost_value o.Cx.seq_cost;
    o_speedup = Option.value ~default:Float.nan o.Cx.speedup;
    o_verified = o.Cx.verified;
    o_mismatches = List.length o.Cx.mismatches;
    o_degraded =
      List.map
        (fun (d : Cx.degrade_step) ->
          ( Cx.technique_name d.Cx.d_from,
            Cx.technique_name d.Cx.d_to,
            d.Cx.d_reason ))
        o.Cx.degraded;
    o_analysis_ns = o.Cx.analysis_ns;
    o_cache_hits = o.Cx.cache_hits;
    o_cache_misses = o.Cx.cache_misses;
    o_policy_source = o.Cx.policy_source;
    o_tasks =
      (match (o.Cx.run, o.Cx.nrun) with
      | Some r, _ -> r.Xinv_parallel.Run.tasks
      | None, Some n -> n.Xinv_native.Nrun.tasks
      | None, None -> 0);
    o_queue_wait_ns = queue_wait_ns;
  }

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
  | Pong of pong
  | Stats_reply of Snapshot.t
  | Shutdown_ack of { served : int }

(* ---- tags ----

   5 and 69 carried daemon-side tuning and are retired: no decoder accepts
   them, so an older client's tune frame is a [Bad_tag]. *)

let tag_run = 1
let tag_ping = 2
let tag_stats = 3
let tag_shutdown = 4
let tag_outcome = 64
let tag_rejected = 65
let tag_failed = 66
let tag_pong = 67
let tag_stats_reply = 68
let tag_shutdown_ack = 70

(* ---- payload codecs ---- *)

let bad fmt = Printf.ksprintf (fun s -> raise (Wire.Error (Wire.Bad_payload s))) fmt

let put_reject w = function
  | Queue_full cap ->
      Wire.put_u8 w 0;
      Wire.put_u32 w cap
  | Unknown_workload n ->
      Wire.put_u8 w 1;
      Wire.put_string w n
  | Bad_request s ->
      Wire.put_u8 w 2;
      Wire.put_string w s
  | Shutting_down -> Wire.put_u8 w 3
  | Deadline_exceeded -> Wire.put_u8 w 4
  | Cancelled -> Wire.put_u8 w 5

let get_reject r =
  match Wire.get_u8 r with
  | 0 -> Queue_full (Wire.get_u32 r)
  | 1 -> Unknown_workload (Wire.get_string r)
  | 2 -> Bad_request (Wire.get_string r)
  | 3 -> Shutting_down
  | 4 -> Deadline_exceeded
  | 5 -> Cancelled
  | n -> bad "reject reason %d" n

let put_summary w s =
  Wire.put_string w s.o_workload;
  Wire.put_string w s.o_technique;
  Wire.put_u8 w (match s.o_cost_kind with `Cycles -> 0 | `Wall_ns -> 1);
  Wire.put_f64 w s.o_cost;
  Wire.put_f64 w s.o_seq_cost;
  Wire.put_f64 w s.o_speedup;
  Wire.put_bool w s.o_verified;
  Wire.put_u32 w s.o_mismatches;
  Wire.put_list w
    (fun w (a, b, c) ->
      Wire.put_string w a;
      Wire.put_string w b;
      Wire.put_string w c)
    s.o_degraded;
  Wire.put_f64 w s.o_analysis_ns;
  Wire.put_u32 w s.o_cache_hits;
  Wire.put_u32 w s.o_cache_misses;
  Wire.put_string w s.o_policy_source;
  Wire.put_u32 w s.o_tasks;
  Wire.put_f64 w s.o_queue_wait_ns

let get_summary r =
  let o_workload = Wire.get_string r in
  let o_technique = Wire.get_string r in
  let o_cost_kind =
    match Wire.get_u8 r with 0 -> `Cycles | 1 -> `Wall_ns | n -> bad "cost kind %d" n
  in
  let o_cost = Wire.get_f64 r in
  let o_seq_cost = Wire.get_f64 r in
  let o_speedup = Wire.get_f64 r in
  let o_verified = Wire.get_bool r in
  let o_mismatches = Wire.get_u32 r in
  let o_degraded =
    Wire.get_list r (fun r ->
        let a = Wire.get_string r in
        let b = Wire.get_string r in
        let c = Wire.get_string r in
        (a, b, c))
  in
  let o_analysis_ns = Wire.get_f64 r in
  let o_cache_hits = Wire.get_u32 r in
  let o_cache_misses = Wire.get_u32 r in
  let o_policy_source = Wire.get_string r in
  let o_tasks = Wire.get_u32 r in
  let o_queue_wait_ns = Wire.get_f64 r in
  {
    o_workload;
    o_technique;
    o_cost_kind;
    o_cost;
    o_seq_cost;
    o_speedup;
    o_verified;
    o_mismatches;
    o_degraded;
    o_analysis_ns;
    o_cache_hits;
    o_cache_misses;
    o_policy_source;
    o_tasks;
    o_queue_wait_ns;
  }

let put_snapshot w (s : Snapshot.t) =
  Wire.put_f64 w s.Snapshot.s_at;
  Wire.put_list w
    (fun w (n, v) ->
      Wire.put_string w n;
      Wire.put_i64 w v)
    s.Snapshot.s_counters;
  Wire.put_list w
    (fun w (n, v) ->
      Wire.put_string w n;
      Wire.put_f64 w v)
    s.Snapshot.s_gauges;
  Wire.put_list w
    (fun w (h : Snapshot.hist) ->
      Wire.put_string w h.Snapshot.s_name;
      Wire.put_list w Wire.put_f64 (Array.to_list h.Snapshot.s_bounds);
      Wire.put_list w Wire.put_i64 (Array.to_list h.Snapshot.s_counts);
      Wire.put_i64 w h.Snapshot.s_count;
      Wire.put_f64 w h.Snapshot.s_sum)
    s.Snapshot.s_hists

let get_snapshot r : Snapshot.t =
  let s_at = Wire.get_f64 r in
  let s_counters =
    Wire.get_list r (fun r ->
        let n = Wire.get_string r in
        let v = Wire.get_i64 r in
        (n, v))
  in
  let s_gauges =
    Wire.get_list r (fun r ->
        let n = Wire.get_string r in
        let v = Wire.get_f64 r in
        (n, v))
  in
  let s_hists =
    Wire.get_list r (fun r ->
        let s_name = Wire.get_string r in
        let s_bounds = Array.of_list (Wire.get_list r Wire.get_f64) in
        let s_counts = Array.of_list (Wire.get_list r Wire.get_i64) in
        let s_count = Wire.get_i64 r in
        let s_sum = Wire.get_f64 r in
        if Array.length s_counts <> Array.length s_bounds + 1 then
          bad "histogram %s: %d bounds / %d counts" s_name
            (Array.length s_bounds) (Array.length s_counts);
        { Snapshot.s_name; s_bounds; s_counts; s_count; s_sum })
  in
  { Snapshot.s_at; s_counters; s_gauges; s_hists }

(* ---- frame codecs ---- *)

let encode_client m =
  let w = Wire.writer () in
  let tag =
    match m with
    | Run req ->
        Request.put w req;
        tag_run
    | Ping -> tag_ping
    | Stats -> tag_stats
    | Shutdown -> tag_shutdown
  in
  Wire.encode_frame ~tag (Wire.contents w)

let decode_client_payload tag payload =
  let r = Wire.reader payload in
  let m =
    if tag = tag_run then Run (Request.get r)
    else if tag = tag_ping then Ping
    else if tag = tag_stats then Stats
    else if tag = tag_shutdown then Shutdown
    else raise (Wire.Error (Wire.Bad_tag tag))
  in
  if not (Wire.reader_done r) then
    raise (Wire.Error (Wire.Bad_payload "trailing bytes"));
  m

let decode_client s =
  let tag, payload = Wire.decode_frame s in
  decode_client_payload tag payload

let encode_server m =
  let w = Wire.writer () in
  let tag =
    match m with
    | Outcome s ->
        put_summary w s;
        tag_outcome
    | Rejected why ->
        put_reject w why;
        tag_rejected
    | Failed msg ->
        Wire.put_string w msg;
        tag_failed
    | Pong p ->
        Wire.put_f64 w p.p_uptime_ns;
        Wire.put_u32 w p.p_pool_domains;
        Wire.put_u32 w p.p_pool_creates;
        Wire.put_u32 w p.p_queued;
        Wire.put_u32 w p.p_served;
        tag_pong
    | Stats_reply s ->
        put_snapshot w s;
        tag_stats_reply
    | Shutdown_ack { served } ->
        Wire.put_u32 w served;
        tag_shutdown_ack
  in
  Wire.encode_frame ~tag (Wire.contents w)

let decode_server_payload tag payload =
  let r = Wire.reader payload in
  let m =
    if tag = tag_outcome then Outcome (get_summary r)
    else if tag = tag_rejected then Rejected (get_reject r)
    else if tag = tag_failed then Failed (Wire.get_string r)
    else if tag = tag_pong then begin
      let p_uptime_ns = Wire.get_f64 r in
      let p_pool_domains = Wire.get_u32 r in
      let p_pool_creates = Wire.get_u32 r in
      let p_queued = Wire.get_u32 r in
      let p_served = Wire.get_u32 r in
      Pong { p_uptime_ns; p_pool_domains; p_pool_creates; p_queued; p_served }
    end
    else if tag = tag_stats_reply then Stats_reply (get_snapshot r)
    else if tag = tag_shutdown_ack then
      Shutdown_ack { served = Wire.get_u32 r }
    else raise (Wire.Error (Wire.Bad_tag tag))
  in
  if not (Wire.reader_done r) then
    raise (Wire.Error (Wire.Bad_payload "trailing bytes"));
  m

let decode_server s =
  let tag, payload = Wire.decode_frame s in
  decode_server_payload tag payload

(* ---- stream transport ---- *)

let send_client fd m = Wire.write_frame fd (encode_client m)

let recv_client fd =
  let tag, payload = Wire.read_frame fd in
  decode_client_payload tag payload

let send_server fd m = Wire.write_frame fd (encode_server m)

let recv_server fd =
  let tag, payload = Wire.read_frame fd in
  decode_server_payload tag payload

(* ---- rendering ---- *)

let pp_server ppf = function
  | Outcome s ->
      let cost c =
        match s.o_cost_kind with
        | `Cycles -> Printf.sprintf "%.0f cycles" c
        | `Wall_ns -> Printf.sprintf "%.2f ms" (c /. 1e6)
      in
      Format.fprintf ppf
        "@[<v>workload         %s@,technique        %s@,cost             %s@,\
         %a@,verified         %b@,policy source    %s@,\
         queue wait       %.2f ms%a@]"
        s.o_workload s.o_technique (cost s.o_cost)
        (fun ppf s ->
          if Float.is_nan s.o_seq_cost then
            Format.fprintf ppf "seq cost         not measured (verify off)"
          else
            Format.fprintf ppf "seq cost         %s@,speedup          %.2fx"
              (cost s.o_seq_cost) s.o_speedup)
        s s.o_verified s.o_policy_source
        (s.o_queue_wait_ns /. 1e6)
        (fun ppf steps ->
          List.iter
            (fun (f, t, why) ->
              Format.fprintf ppf "@,degraded         %s -> %s (%s)" f t why)
            steps)
        s.o_degraded
  | Rejected why -> Format.fprintf ppf "rejected: %s" (reject_to_string why)
  | Failed msg -> Format.fprintf ppf "failed: %s" msg
  | Pong p ->
      Format.fprintf ppf
        "pong: up %.1f s, %d pool domains (%d create%s), %d queued, %d served"
        (p.p_uptime_ns /. 1e9) p.p_pool_domains p.p_pool_creates
        (if p.p_pool_creates = 1 then "" else "s")
        p.p_queued p.p_served
  | Stats_reply s -> Xinv_obs.Snapshot.pp ppf s
  | Shutdown_ack { served } ->
      Format.fprintf ppf "daemon stopped after %d served request%s" served
        (if served = 1 then "" else "s")
