module Cx = Xinv_core.Crossinv
module Nat = Xinv_native
module Metrics = Xinv_obs.Metrics
module Snapshot = Xinv_obs.Snapshot

type config = {
  domains : int;
  queue_capacity : int;
  cache : [ `Off | `Ro | `Rw ];
  cache_dir : string option;
  default_deadline_ms : float option;
}

let default_config =
  {
    domains = 2;
    queue_capacity = 1024;
    cache = `Off;
    cache_dir = None;
    default_deadline_ms = None;
  }

type job = {
  id : int;
  req : Request.t;
      (** its [deadline_ms], an end-to-end budget from [enqueued_at], is
          defaulted from the config at submission *)
  enqueued_at : float;
  jm : Mutex.t;
  jc : Condition.t;
  mutable result : Protocol.server_msg option;
  mutable wd : Nat.Watchdog.t option;
  mutable cancelled : bool;
  mutable waker : Unix.file_descr option;
      (** write end of the watching connection's self-pipe *)
}

type t = {
  cfg : config;
  metrics : Metrics.t;
  mutable pool : Nat.Pool.t;
  queue : job Fair.t;
  mu : Mutex.t;
  work : Condition.t;
  mutable stopping : bool;
  mutable scheduler : Thread.t option;
  served_jobs : int Atomic.t;
  next_id : int Atomic.t;
  started_at : float;
  (* pre-registered hot handles *)
  c_pool_create : Metrics.counter;
  c_submitted : Metrics.counter;
  c_completed : Metrics.counter;
  c_rejected : Metrics.counter;
  c_failed : Metrics.counter;
  c_cancelled : Metrics.counter;
  c_deadline_missed : Metrics.counter;
  c_baseline_reused : Metrics.counter;
  h_queue_wait : Metrics.histogram;
  g_depth : Metrics.gauge;
}

let now () = Unix.gettimeofday ()

let metrics t = t.metrics
let pool_creates t = t.c_pool_create.Metrics.c_value
let served t = Atomic.get t.served_jobs

let tenant_counter t tenant what =
  Metrics.counter t.metrics (Printf.sprintf "serve.tenant.%s.%s" tenant what)

let new_pool cfg c_pool_create =
  Metrics.incr c_pool_create;
  Nat.Pool.create ~workers:cfg.domains

let create cfg =
  let metrics = Metrics.create () in
  let c_pool_create = Metrics.counter metrics "serve.pool.create" in
  {
    cfg;
    metrics;
    pool = new_pool cfg c_pool_create;
    queue = Fair.create ~capacity:cfg.queue_capacity;
    mu = Mutex.create ();
    work = Condition.create ();
    stopping = false;
    scheduler = None;
    served_jobs = Atomic.make 0;
    next_id = Atomic.make 0;
    started_at = now ();
    c_pool_create;
    c_submitted = Metrics.counter metrics "serve.submitted";
    c_completed = Metrics.counter metrics "serve.completed";
    c_rejected = Metrics.counter metrics "serve.rejected";
    c_failed = Metrics.counter metrics "serve.failed";
    c_cancelled = Metrics.counter metrics "serve.cancelled";
    c_deadline_missed = Metrics.counter metrics "serve.deadline_missed";
    c_baseline_reused = Metrics.counter metrics "serve.baseline.reused";
    h_queue_wait = Metrics.histogram metrics "serve.queue_wait_ms";
    g_depth = Metrics.gauge metrics "serve.queue.depth";
  }

(* ---- job lifecycle ---- *)

let wake_byte = Bytes.make 1 '!'

let finish t job msg =
  Mutex.lock job.jm;
  let first = job.result = None in
  if first then begin
    job.result <- Some msg;
    Condition.broadcast job.jc;
    (* Wake the connection watching this job.  The write happens under
       [jm]: the connection sees the result only by taking [jm] after this
       unlock, so it cannot have closed its pipe yet and the fd is never a
       recycled one.  A write error is ignored: EAGAIN means the pipe is
       full, so a wake is already pending. *)
    match job.waker with
    | Some w -> (
        try ignore (Unix.single_write w wake_byte 0 1)
        with Unix.Unix_error _ -> ())
    | None -> ()
  end;
  Mutex.unlock job.jm;
  if first then begin
    Atomic.incr t.served_jobs;
    let tenant = job.req.Request.tenant in
    match msg with
    | Protocol.Outcome _ ->
        Metrics.incr t.c_completed;
        Metrics.incr (tenant_counter t tenant "completed")
    | Protocol.Rejected why ->
        Metrics.incr t.c_rejected;
        Metrics.incr (tenant_counter t tenant "rejected");
        (match why with
        | Protocol.Deadline_exceeded ->
            Metrics.incr t.c_deadline_missed;
            Metrics.incr (tenant_counter t tenant "deadline_missed")
        | Protocol.Cancelled -> Metrics.incr t.c_cancelled
        | _ -> ())
    | Protocol.Failed _ -> Metrics.incr t.c_failed
    | _ -> ()
  end

let await job =
  Mutex.lock job.jm;
  while job.result = None do
    Condition.wait job.jc job.jm
  done;
  let r = Option.get job.result in
  Mutex.unlock job.jm;
  r

let peek job =
  Mutex.lock job.jm;
  let r = job.result in
  Mutex.unlock job.jm;
  r

let submit t (req : Request.t) =
  let req =
    match req.Request.deadline_ms with
    | Some _ -> req
    | None -> { req with Request.deadline_ms = t.cfg.default_deadline_ms }
  in
  let tenant = req.Request.tenant in
  let job =
    {
      id = Atomic.fetch_and_add t.next_id 1;
      req;
      enqueued_at = now ();
      jm = Mutex.create ();
      jc = Condition.create ();
      result = None;
      wd = None;
      cancelled = false;
      waker = None;
    }
  in
  Metrics.incr t.c_submitted;
  Metrics.incr (tenant_counter t tenant "submitted");
  Mutex.lock t.mu;
  if t.stopping then begin
    Mutex.unlock t.mu;
    finish t job (Protocol.Rejected Protocol.Shutting_down)
  end
  else begin
    match Fair.push t.queue ~priority:req.Request.priority ~tenant job with
    | Ok () ->
        Metrics.set t.g_depth (float_of_int (Fair.length t.queue));
        Condition.signal t.work;
        Mutex.unlock t.mu
    | Error (`Full cap) ->
        Mutex.unlock t.mu;
        finish t job (Protocol.Rejected (Protocol.Queue_full cap))
  end;
  job

(* Cancelling with [Cancelled] makes the request final: the degradation
   chain does not retry a request whose client is gone. *)
let disconnect_exn = Nat.Watchdog.Cancelled "client disconnected"

let cancel t job =
  Mutex.lock t.mu;
  let withdrawn = Fair.remove t.queue (fun j -> j.id = job.id) in
  (match withdrawn with
  | Some _ -> Metrics.set t.g_depth (float_of_int (Fair.length t.queue))
  | None -> ());
  Mutex.unlock t.mu;
  match withdrawn with
  | Some j -> finish t j (Protocol.Rejected Protocol.Cancelled)
  | None ->
      (* already popped: flag it and cancel the attempt's watchdog if one
         is armed; the [on_watchdog] hook covers the window before the
         first attempt arms one. *)
      Mutex.lock job.jm;
      job.cancelled <- true;
      let wd = job.wd in
      Mutex.unlock job.jm;
      match wd with
      | Some wd -> ignore (Nat.Watchdog.cancel wd disconnect_exn)
      | None -> ()

(* ---- execution ---- *)

(* A tuned [`Auto] policy or an oversized request may ask for more
   contexts than the shared pool holds; shrink to the largest thread
   count whose pool demand fits, instead of bouncing the run. *)
let fit_threads ~pool ~technique threads =
  let cap = Nat.Pool.workers pool in
  let rec go th =
    if th <= 1 then 1
    else if Cx.native_pool_size ~technique ~threads:th <= cap then th
    else go (th - 1)
  in
  go threads

let is_cancelled job =
  Mutex.lock job.jm;
  let c = job.cancelled in
  Mutex.unlock job.jm;
  c

let exec_run t job ~queue_wait_ns ~remaining_ms =
  if not (Nat.Pool.live t.pool) then t.pool <- new_pool t.cfg t.c_pool_create;
  let on_watchdog wd =
    Mutex.lock job.jm;
    job.wd <- Some wd;
    let c = job.cancelled in
    Mutex.unlock job.jm;
    if c then ignore (Nat.Watchdog.cancel wd disconnect_exn)
  in
  match
    Request.to_crossinv ~pool:t.pool ?cache_dir:t.cfg.cache_dir
      ~cache_limit:t.cfg.cache ?deadline_ms:remaining_ms ~on_watchdog job.req
  with
  | Error (`Unknown_workload n) ->
      finish t job (Protocol.Rejected (Protocol.Unknown_workload n))
  | Error (`Bad_request r) ->
      finish t job (Protocol.Rejected (Protocol.Bad_request r))
  | Ok creq ->
      let native =
        match creq.Cx.Request.backend with `Native _ -> true | `Sim _ -> false
      in
      let creq =
        if not native then creq
        else
          {
            creq with
            Cx.Request.threads =
              fit_threads ~pool:t.pool ~technique:creq.Cx.Request.technique
                creq.Cx.Request.threads;
          }
      in
      let workload = creq.Cx.Request.workload.Xinv_workloads.Workload.name in
      finish t job
        (match Cx.run_request creq with
        (* A cancel that lands after the last cancel point (in the
           sequential baseline, say) lets the run complete — the client is
           gone either way, and the cancellation wins.  (Sim runs have no
           cancel point and deliver their outcome; see the mli.) *)
        | _ when native && is_cancelled job -> Protocol.Rejected Protocol.Cancelled
        | o ->
            if o.Cx.baseline_reused then Metrics.incr t.c_baseline_reused;
            Protocol.Outcome (Protocol.summary_of_outcome ~workload ~queue_wait_ns o)
        | exception _ when is_cancelled job -> Protocol.Rejected Protocol.Cancelled
        | exception Nat.Watchdog.Stalled _ ->
            Protocol.Rejected Protocol.Deadline_exceeded
        (* a refusal or other [Failure] replies with its message *)
        | exception Failure m -> Protocol.Failed m
        | exception e -> Protocol.Failed (Printexc.to_string e))

let execute t job =
  let queue_wait_ns = (now () -. job.enqueued_at) *. 1e9 in
  Metrics.observe t.h_queue_wait (queue_wait_ns /. 1e6);
  let remaining_ms =
    Option.map (fun d -> d -. (queue_wait_ns /. 1e6)) job.req.Request.deadline_ms
  in
  if is_cancelled job then finish t job (Protocol.Rejected Protocol.Cancelled)
  else
    match remaining_ms with
    | Some r when r <= 0. ->
        finish t job (Protocol.Rejected Protocol.Deadline_exceeded)
    | _ -> exec_run t job ~queue_wait_ns ~remaining_ms

(* ---- scheduler ---- *)

let scheduler_loop t =
  let running = ref true in
  while !running do
    Mutex.lock t.mu;
    while (not t.stopping) && Fair.length t.queue = 0 do
      Condition.wait t.work t.mu
    done;
    (match Fair.pop t.queue with
    | None ->
        (* stopping and empty *)
        running := false;
        Mutex.unlock t.mu
    | Some job ->
        Metrics.set t.g_depth (float_of_int (Fair.length t.queue));
        Mutex.unlock t.mu;
        execute t job)
  done

let start t =
  Mutex.lock t.mu;
  let need = t.scheduler = None && not t.stopping in
  Mutex.unlock t.mu;
  if need then begin
    let th = Thread.create scheduler_loop t in
    Mutex.lock t.mu;
    t.scheduler <- Some th;
    Mutex.unlock t.mu
  end

let stop ?(drain = false) t =
  Mutex.lock t.mu;
  t.stopping <- true;
  let rejected =
    if drain then []
    else begin
      (* empty the queue now so the scheduler exits without running them *)
      let rec all acc =
        match Fair.pop t.queue with None -> acc | Some j -> all (j :: acc)
      in
      all []
    end
  in
  Metrics.set t.g_depth (float_of_int (Fair.length t.queue));
  Condition.broadcast t.work;
  let th = t.scheduler in
  t.scheduler <- None;
  Mutex.unlock t.mu;
  List.iter
    (fun j -> finish t j (Protocol.Rejected Protocol.Shutting_down))
    rejected;
  (match th with Some th -> Thread.join th | None -> ());
  Nat.Pool.shutdown t.pool

(* ---- stats ---- *)

let queued t =
  Mutex.lock t.mu;
  let n = Fair.length t.queue in
  Mutex.unlock t.mu;
  n

let snapshot t = Snapshot.take t.metrics

let pong t =
  {
    Protocol.p_uptime_ns = (now () -. t.started_at) *. 1e9;
    p_pool_domains = Nat.Pool.workers t.pool;
    p_pool_creates = pool_creates t;
    p_queued = queued t;
    p_served = served t;
  }

(* ---- socket front end ---- *)

type session = {
  srv : t;
  fd : Unix.file_descr;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  mutable shutdown_seen : bool;
}

(* Empties the non-blocking self-pipe: a short read means it is drained. *)
let drain fd =
  let b = Bytes.create 64 in
  let rec go () =
    match Unix.read fd b 0 64 with
    | 64 -> go ()
    | _ | (exception Unix.Unix_error _) -> ()
  in
  go ()

(* While a connection's request is in flight, its thread blocks in
   [select] on the client socket and the connection's self-pipe, whose
   fd is armed as the job's [waker]: [finish] writes a byte there, so the
   reply goes out as soon as the job completes.  A readable pipe is
   drained and the job re-checked (a stale byte from an earlier request
   costs one spurious check).  A readable socket is peeked: EOF means the
   client hung up, so its job is cancelled (only that cohort unwinds; the
   pool and every other tenant's run are untouched) and [None] is
   returned — the peer is dead, so no reply must be written to it. *)
let await_watching s job =
  Mutex.lock job.jm;
  job.waker <- Some s.wake_w;
  Mutex.unlock job.jm;
  let gone () =
    cancel s.srv job;
    ignore (await job);
    None
  in
  let rec go () =
    match peek job with
    | Some r -> Some r
    | None -> (
        match Unix.select [ s.fd; s.wake_r ] [] [] (-1.) with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        | exception Unix.Unix_error _ -> gone ()
        | ready, _, _ -> (
            if List.mem s.wake_r ready then drain s.wake_r;
            if not (List.mem s.fd ready) then go ()
            else
              let b = Bytes.create 1 in
              match Unix.recv s.fd b 0 1 [ Unix.MSG_PEEK ] with
              | 0 -> gone ()
              | _ ->
                  (* client pipelined its next frame; stop watching *)
                  Some (await job)
              | exception Unix.Unix_error _ -> gone ()))
  in
  go ()

let reply_watching s job =
  match await_watching s job with
  | Some r ->
      Protocol.send_server s.fd r;
      true
  | None -> false (* client gone: nothing to write, drop the session *)

let handle_message s msg =
  match (msg : Protocol.client_msg) with
  | Protocol.Ping ->
      Protocol.send_server s.fd (Protocol.Pong (pong s.srv));
      true
  | Protocol.Stats ->
      Protocol.send_server s.fd (Protocol.Stats_reply (snapshot s.srv));
      true
  | Protocol.Shutdown ->
      s.shutdown_seen <- true;
      Protocol.send_server s.fd
        (Protocol.Shutdown_ack { served = served s.srv });
      false
  | Protocol.Run req -> reply_watching s (submit s.srv req)

let handle_conn s =
  let rec session () =
    match Protocol.recv_client s.fd with
    | msg -> if (try handle_message s msg with _ -> false) then session ()
    | exception Wire.Error Wire.Closed -> ()
    | exception Wire.Error e ->
        (* framing is gone; answer once, then drop the connection *)
        (try
           Protocol.send_server s.fd
             (Protocol.Rejected
                (Protocol.Bad_request (Wire.error_to_string e)))
         with _ -> ())
    | exception _ -> ()
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun fd -> try Unix.close fd with _ -> ())
        [ s.fd; s.wake_r; s.wake_w ])
    session

let serve t ~socket =
  (* A client that disconnects between the last check in [await_watching]
     and a reply write would otherwise deliver SIGPIPE, whose default action
     terminates the whole multi-tenant daemon.  Ignored, a write to a
     dead peer fails with a catchable [EPIPE] instead, which the session
     loop treats as end-of-connection. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  start t;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  Unix.bind fd (Unix.ADDR_UNIX socket);
  Unix.listen fd 64;
  let stop_requested = Atomic.make false in
  (* (fd, thread) of every accepted connection; touched only by this
     thread (accept loop, then the [finally] below), so unlocked *)
  let conns = ref [] in
  let rec accept_loop () =
    if not (Atomic.get stop_requested) then begin
      match Unix.accept fd with
      | cfd, _ ->
          let wake_r, wake_w = Unix.pipe ~cloexec:true () in
          Unix.set_nonblock wake_r;
          Unix.set_nonblock wake_w;
          let s =
            { srv = t; fd = cfd; wake_r; wake_w; shutdown_seen = false }
          in
          let th =
            Thread.create
              (fun () ->
                handle_conn s;
                if s.shutdown_seen then begin
                  Atomic.set stop_requested true;
                  (* poke the accept loop awake so it can exit *)
                  try
                    let p = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
                    (try Unix.connect p (Unix.ADDR_UNIX socket)
                     with Unix.Unix_error _ -> ());
                    Unix.close p
                  with Unix.Unix_error _ -> ()
                end)
              ()
          in
          conns := (cfd, th) :: !conns;
          accept_loop ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
    end
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      (try Unix.unlink socket with Unix.Unix_error _ -> ());
      (* EOF the surviving connections before joining: a thread parked in
         [recv_client] on an idle keep-alive connection would otherwise
         never return and the join would hang the shutdown forever.
         shutdown(2) wakes the reader without racing the owning thread's
         close; on an fd its thread already closed (possibly reused by a
         non-socket) it fails with a caught EBADF/ENOTSOCK. *)
      List.iter
        (fun (cfd, _) ->
          try Unix.shutdown cfd Unix.SHUTDOWN_ALL
          with Unix.Unix_error _ | Invalid_argument _ -> ())
        !conns;
      List.iter (fun (_, th) -> Thread.join th) !conns;
      stop t)
    accept_loop
