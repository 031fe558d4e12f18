(* The four workloads, the closed loops that drive them, and the metrics
   each pass computes from its raw samples. *)

module Cx = Xinv_core.Crossinv
module W = Xinv_workloads.Workload
module Reg = Xinv_workloads.Registry
module Nat = Xinv_native
module Proto = Xinv_serve.Protocol
module SReq = Xinv_serve.Request
module Server = Xinv_serve.Server
module Client = Xinv_serve.Client
module L = Layers

let now = Unix.gettimeofday

type metric = { name : string; value : float; unit_ : string; stat : string }

let metric name unit_ stat value = { name; value; unit_; stat }

(* ---- files under the run's scratch directory ---- *)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf p =
  match Unix.lstat p with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Unix.rmdir p
  | _ -> Sys.remove p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* "VmHWM" of a process, in MB: the peak resident set size. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec go () =
            match input_line ic with
            | line when String.starts_with ~prefix:"VmHWM:" line ->
                Scanf.sscanf line "VmHWM: %f kB" (fun kb -> kb /. 1024.)
            | _ -> go ()
            | exception End_of_file -> nan
          in
          go ())

(* ---- requests ---- *)

type attrs = { tenant : string; priority : [ `High | `Normal ] }

let serve_request ~verify ~cache (c : L.cell) a =
  SReq.make ~backend:`Native ~technique:(Cx.technique_name c.L.tech)
    ~threads:c.L.threads ~input:c.L.input ~verify ~cache ~priority:a.priority
    ~tenant:a.tenant (`Name c.L.wl.W.name)

let core_request ~work ?pool ~cache ?cache_dir ~verify (c : L.cell) =
  let backend =
    match c.L.backend with
    | L.Native -> `Native { Cx.native_defaults with Cx.work; pool }
    | L.Sim -> `Sim None
  in
  Cx.Request.make ~backend ~input:c.L.input ~verify ~cache ?cache_dir
    ~technique:c.L.tech ~threads:c.L.threads c.L.wl

let run_inproc c req =
  match Cx.run_request req with
  | o ->
      Proto.Outcome
        (Proto.summary_of_outcome ~workload:c.L.wl.W.name ~queue_wait_ns:0. o)
  | exception e -> Proto.Failed (Printexc.to_string e)

let ok = function Proto.Outcome s -> s.Proto.o_verified | _ -> false

let describe (c : L.cell) r =
  Printf.sprintf "%s: %s" (L.cell_name c) (Format.asprintf "%a" Proto.pp_server r)

let summary = function Proto.Outcome s -> Some s | _ -> None

(* ---- workloads ---- *)

(* One client's connection to the system under test. *)
type caller = {
  call : verify:bool -> L.cell -> attrs -> Proto.server_msg;
  hang_up : unit -> unit;
}

(* A call that raised (a broken connection, say) is a failed request. *)
let send caller ~verify c a =
  try caller.call ~verify c a with e -> Proto.Failed (Printexc.to_string e)

(* A workload set up and ready to take requests. *)
type session = {
  connect : unit -> caller;
  work : Nat.Work.t;
  pool : Nat.Pool.t option;  (** the in-process pool requests run on *)
  cache_dir : string option;
  rss_mb : unit -> float;
  pool_creates : unit -> int;
  close : unit -> unit;
}

type baseline =
  | From_reply  (** the sequential baseline the request itself ran *)
  | Run_seq  (** [Nbarrier.run_seq] timed once per workload per round *)
  | Seq_interp  (** [Seq_interp.run] timed once per workload per round *)

type workload = {
  name : string;
  cells : L.cell list;
  clients : int;
  domains : int;  (** domains the system under test runs on *)
  verify : bool;  (** whether timed requests verify *)
  serve : bool;  (** requests go through the serve daemon *)
  socket : bool;
  baseline : baseline;
  open_session : dir:string -> session;
}

let native_cells ~input ~with_inject seed =
  let techs = [ Cx.Sequential; Cx.Barrier; Cx.Domore; Cx.Speccross ] in
  let cells =
    List.concat_map
      (fun name ->
        let wl = Reg.find name in
        List.filter_map
          (fun tech ->
            match Cx.applicable ~backend:`Native tech wl with
            | Ok () -> Some { L.wl; tech; input; backend = L.Native; threads = 2 }
            | Error _ -> None)
          techs)
      [ "SYMM"; "LLUBENCH"; "CG"; "ECLAT"; "JACOBI" ]
  in
  if not with_inject then cells
  else
    (* The injected epoch varies with the seed within a narrow band around
       the middle of the run, so the rollback's redo work stays comparable
       across seeds. *)
    let wl = Reg.find "JACOBI" in
    let epochs = Xinv_ir.Program.invocations (wl.W.program input) in
    let e = max 1 (min (epochs - 1) ((epochs / 2) - 2 + (abs seed mod 5))) in
    cells
    @ [ { L.wl; tech = Cx.Speccross_inject e; input; backend = L.Native; threads = 2 } ]

let sim_cells () =
  List.map
    (fun wl -> { L.wl; tech = Cx.Domore; input = W.Train; backend = L.Sim; threads = 8 })
    (Reg.domore_set ())
  @ List.map
      (fun wl ->
        { L.wl; tech = Cx.Speccross; input = W.Train; backend = L.Sim; threads = 8 })
      (Reg.speccross_set ())

let inproc_caller ~work ?pool ~cache ?cache_dir () =
  {
    call =
      (fun ~verify c _ ->
        run_inproc c (core_request ~work ?pool ~cache ?cache_dir ~verify c));
    hang_up = ignore;
  }

(* The daemon of serve-socket: this same executable re-run in daemon mode,
   so it is a process of its own with its own peak RSS. *)
let spawn_daemon socket =
  Unix.create_process Sys.executable_name
    [| Sys.executable_name; "--serve-daemon"; socket |]
    Unix.stdin Unix.stderr Unix.stderr

let wait_pong socket =
  let deadline = now () +. 30. in
  let rec go () =
    match Client.call ~socket Proto.Ping with
    | Proto.Pong p -> p
    | _ -> failwith "daemon answered a ping without a pong"
    | exception (Unix.Unix_error _ as e) ->
        if now () > deadline then raise e;
        Thread.delay 0.005;
        go ()
  in
  go ()

let stop_daemon socket pid =
  (try ignore (Client.call ~socket Proto.Shutdown) with _ -> ());
  let deadline = now () +. 10. in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () < deadline ->
        Thread.delay 0.01;
        reap ()
    | 0, _ ->
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  reap ()

let serve_socket ~cells =
  {
    name = "serve-socket";
    cells;
    clients = 2;
    domains = 2;
    verify = true;
    serve = true;
    socket = true;
    (* Not the baseline the daemon reports: between requests the daemon
       idles on its 20 ms poll, and its sub-millisecond baseline runs cold,
       at times that move by a third from one daemon process to the next. *)
    baseline = Run_seq;
    open_session =
      (fun ~dir ->
        let socket = Filename.concat dir "serve.sock" in
        let pid = spawn_daemon socket in
        match wait_pong socket with
        | exception e ->
            stop_daemon socket pid;
            raise e
        | _ ->
            {
              connect =
                (fun () ->
                  let fd = Client.connect socket in
                  {
                    call =
                      (fun ~verify c a ->
                        Client.request fd
                          (Proto.Run (serve_request ~verify ~cache:`Off c a)));
                    hang_up = (fun () -> Unix.close fd);
                  });
              work = Nat.Work.Off;
              pool = None;
              cache_dir = None;
              rss_mb = (fun () -> peak_rss_mb (string_of_int pid));
              pool_creates =
                (fun () -> (wait_pong socket).Proto.p_pool_creates);
              close = (fun () -> stop_daemon socket pid);
            });
  }

let serve_warm ~cells =
  {
    name = "serve-warm";
    cells;
    clients = 2;
    domains = 2;
    verify = true;
    serve = true;
    socket = false;
    baseline = From_reply;
    open_session =
      (fun ~dir ->
        let cache_dir = Filename.concat dir "cache" in
        let srv =
          Server.create
            { Server.default_config with Server.domains = 1; cache = `Rw;
              cache_dir = Some cache_dir }
        in
        Server.start srv;
        {
          connect =
            (fun () ->
              {
                call =
                  (fun ~verify c a ->
                    Server.await
                      (Server.submit srv (serve_request ~verify ~cache:`Rw c a)));
                hang_up = ignore;
              });
          work = Nat.Work.Off;
          pool = None;
          cache_dir = Some cache_dir;
          rss_mb = (fun () -> peak_rss_mb "self");
          pool_creates = (fun () -> Server.pool_creates srv);
          close = (fun () -> Server.stop srv);
        });
  }

(* [Work.calibrated_spin ~ns_per_cycle:1.0], with its calibration checked.
   The model times one burn of a few milliseconds, once per process, and on
   a shared machine that one sample misses by up to 20% from process to
   process, which moves every native-ref latency with it.  Each set-up adds
   51 two-millisecond burns to this process's sample; the model is rescaled
   so that one cycle of cost burns one nanosecond by the sample's median. *)
let spin_ratios = ref []

let spin_work () =
  let w = Nat.Work.calibrated_spin ~ns_per_cycle:1.0 in
  let burn () =
    let t0 = now () in
    Nat.Work.burn w 2e6;
    (now () -. t0) /. 2e-3
  in
  spin_ratios := List.init 51 (fun _ -> burn ()) @ !spin_ratios;
  Nat.Work.Spin (1.0 /. Sample.median !spin_ratios)

let native_ref ~cells =
  {
    name = "native-ref";
    cells;
    clients = 1;
    domains = 2;
    verify = false;
    serve = false;
    socket = false;
    baseline = Run_seq;
    open_session =
      (fun ~dir ->
        let pool = Nat.Pool.create ~workers:1 in
        let work = spin_work () in
        let cache_dir = Filename.concat dir "cache" in
        {
          connect = (fun () -> inproc_caller ~work ~pool ~cache:`Rw ~cache_dir ());
          work;
          pool = Some pool;
          cache_dir = Some cache_dir;
          rss_mb = (fun () -> peak_rss_mb "self");
          pool_creates = (fun () -> 1);
          close = (fun () -> Nat.Pool.shutdown pool);
        });
  }

let sim_sweep ~cells =
  {
    name = "sim-sweep";
    cells;
    clients = 1;
    domains = 1;
    verify = true;
    serve = false;
    socket = false;
    baseline = Seq_interp;
    open_session =
      (fun ~dir:_ ->
        {
          connect = (fun () -> inproc_caller ~work:Nat.Work.Off ~cache:`Off ());
          work = Nat.Work.Off;
          pool = None;
          cache_dir = None;
          rss_mb = (fun () -> peak_rss_mb "self");
          pool_creates = (fun () -> 0);
          close = ignore;
        });
  }

let names = [ "serve-socket"; "serve-warm"; "native-ref"; "sim-sweep" ]

(* [small] keeps the last cell of each technique: the smoke test's set,
   which still reaches every layer. *)
let find ?(small = false) ~seed name =
  let key (c : L.cell) =
    match c.L.tech with Cx.Speccross_inject _ -> "inject" | t -> Cx.technique_name t
  in
  let rec last_of_each = function
    | [] -> []
    | c :: rest ->
        if List.exists (fun d -> key d = key c) rest then last_of_each rest
        else c :: last_of_each rest
  in
  let pick cells = if small then last_of_each cells else cells in
  match name with
  | "serve-socket" ->
      serve_socket ~cells:(pick (native_cells ~input:W.Train ~with_inject:false seed))
  | "serve-warm" ->
      serve_warm ~cells:(pick (native_cells ~input:W.Train ~with_inject:false seed))
  | "native-ref" -> native_ref ~cells:(pick (native_cells ~input:W.Ref ~with_inject:true seed))
  | "sim-sweep" -> sim_sweep ~cells:(pick (sim_cells ()))
  | n -> invalid_arg ("unknown workload " ^ n)

(* ---- the request stream ---- *)

(* Rounds of every cell once, in a seeded order, each request with a seeded
   tenant and priority.  No new round starts once [seconds] have passed. *)
type stream = {
  mu : Mutex.t;
  rng : Xinv_util.Prng.t;
  cells : L.cell array;
  mutable pending : (int * int * attrs) list;  (** round, cell, attributes *)
  mutable rounds : int;
  until : float;
  on_round : unit -> unit;
}

let stream ~seed ~seconds ~on_round cells =
  {
    mu = Mutex.create ();
    rng = Xinv_util.Prng.create ~seed;
    cells = Array.of_list cells;
    pending = [];
    rounds = 0;
    until = now () +. seconds;
    on_round;
  }

let tenants = [| "alice"; "bob"; "carol" |]

let next s =
  Mutex.lock s.mu;
  let r =
    match s.pending with
    | x :: rest ->
        s.pending <- rest;
        Some x
    | [] when s.rounds > 0 && now () >= s.until -> None
    | [] -> (
        s.rounds <- s.rounds + 1;
        s.on_round ();
        let order = Array.init (Array.length s.cells) Fun.id in
        Xinv_util.Prng.shuffle s.rng order;
        let reqs =
          Array.to_list
            (Array.map
               (fun i ->
                 let tenant = tenants.(Xinv_util.Prng.int s.rng (Array.length tenants)) in
                 let priority =
                   if Xinv_util.Prng.chance s.rng 0.125 then `High else `Normal
                 in
                 (s.rounds - 1, i, { tenant; priority }))
               order)
        in
        match reqs with
        | x :: rest ->
            s.pending <- rest;
            Some x
        | [] -> None)
  in
  Mutex.unlock s.mu;
  r

(* ---- set-up ---- *)

let default_attrs = { tenant = "setup"; priority = `Normal }

(* One set-up: open the session and warm every cell once with a verified
   request.  Returns the session, its wall time and the failed warm-ups. *)
let set_up (w : workload) ~dir =
  rm_rf dir;
  mkdir_p dir;
  let t0 = now () in
  let s = w.open_session ~dir in
  match s.connect () with
  | exception e ->
      s.close ();
      raise e
  | caller ->
      let bad =
        List.filter_map
          (fun c ->
            let r = send caller ~verify:true c default_attrs in
            if ok r then None else Some (describe c r))
          w.cells
      in
      caller.hang_up ();
      (s, now () -. t0, bad)

(* ---- end-to-end pass ---- *)

type e2e = {
  metrics : metric list;
  extras : metric list;
  attempted : int;
  failed : int;
  failures : string list;
  pool_creates : int;
}

(* Times the workload's sequential baseline at the start of every round.
   Returns the round hook, the (workload, ms) timings, and each round's
   time spent on them, the latest round first.  A baseline under a
   millisecond runs cold after the clients' waits and its one time moves by
   a third from run to run; so each workload's baseline runs back to back
   until 2 ms have passed, at most 10 times, and every run is a timing. *)
let baseline_timer (w : workload) (s : session) =
  let seen = Hashtbl.create 8 in
  let timings = ref [] and spent = ref [] in
  let wls =
    List.filter
      (fun (c : L.cell) ->
        let k = c.L.wl.W.name in
        if Hashtbl.mem seen k then false
        else (Hashtbl.replace seen k (); true))
      w.cells
  in
  let on_round () =
    let t_round = now () in
    List.iter
      (fun (c : L.cell) ->
        let prog = c.L.wl.W.program c.L.input in
        let t_first = now () in
        let rec run k =
          let env = c.L.wl.W.fresh_env c.L.input in
          let t0 = now () in
          (match w.baseline with
          | Run_seq -> ignore (Nat.Nbarrier.run_seq ~work:s.work prog env)
          | Seq_interp -> ignore (Xinv_ir.Seq_interp.run prog env)
          | From_reply -> ());
          let t1 = now () in
          timings := (c.L.wl.W.name, (t1 -. t0) *. 1e3) :: !timings;
          if k < 10 && t1 -. t_first < 2e-3 then run (k + 1)
        in
        run 1)
      (if w.baseline = From_reply then [] else wls);
    spent := (now () -. t_round) :: !spent
  in
  (on_round, timings, spent)

(* Each round's requests over the round's wall time, minus the baseline
   timing at its start.  A round ends with its last reply, so the rounds'
   times add up to the whole run.  With two clients a round's last reply
   can land after the next round's, and such a round has no time of its own. *)
let round_rates ~t_start ~spent samples ~rounds =
  let ends = Array.make rounds t_start and counts = Array.make rounds 0 in
  List.iter
    (fun (r, _, _, _, t1) ->
      ends.(r) <- Float.max ends.(r) t1;
      counts.(r) <- counts.(r) + 1)
    samples;
  let spent = Array.of_list (List.rev spent) in
  let rec go r prev acc =
    if r = rounds then List.rev acc
    else
      let stop = Float.max prev ends.(r) in
      let dt = stop -. prev -. spent.(r) in
      go (r + 1) stop (if dt > 0. then (float_of_int counts.(r) /. dt) :: acc else acc)
  in
  go 0 t_start []

let e2e (w : workload) ~seed ~seconds ~setups ~dir =
  (* Every set-up but the last is torn down; the last one serves the run. *)
  let rec go i times bad =
    let s, t, b = set_up w ~dir:(Filename.concat dir (Printf.sprintf "setup-%d" i)) in
    if i = setups - 1 then (s, t :: times, b @ bad)
    else begin
      s.close ();
      go (i + 1) (t :: times) (b @ bad)
    end
  in
  let s, setup_times, setup_bad = go 0 [] [] in
  Fun.protect ~finally:s.close (fun () ->
      let on_round, timings, spent = baseline_timer w s in
      let st = stream ~seed ~seconds ~on_round w.cells in
      let mu = Mutex.create () in
      let samples = ref [] and broken = ref [] in
      let t_start = now () in
      let client () =
        match s.connect () with
        | exception e ->
            Mutex.lock mu;
            broken := ("connect: " ^ Printexc.to_string e) :: !broken;
            Mutex.unlock mu
        | caller ->
            let rec loop () =
              match next st with
              | None -> ()
              | Some (round, i, a) ->
                  let t0 = now () in
                  let reply = send caller ~verify:w.verify st.cells.(i) a in
                  let t1 = now () in
                  Mutex.lock mu;
                  samples := (round, i, (t1 -. t0) *. 1e3, reply, t1) :: !samples;
                  Mutex.unlock mu;
                  loop ()
            in
            Fun.protect ~finally:caller.hang_up loop
      in
      if w.clients = 1 then client ()
      else List.iter Thread.join (List.init w.clients (fun _ -> Thread.create client ()));
      let samples = List.rev !samples in
      let lat = List.map (fun (_, _, l, _, _) -> l) samples in
      let n = List.length samples in
      let failures =
        List.filter_map
          (fun (_, i, _, r, _) -> if ok r then None else Some (describe st.cells.(i) r))
          samples
      in
      let rates = round_rates ~t_start ~spent:!spent samples ~rounds:st.rounds in
      (* Per cell: the median request latency, and the sequential baseline's
         median over it.  Cells differ in latency by up to 25x, so a median
         over all requests jumps between cells when the tails move; the
         cells' own medians do not. *)
      let per_cell =
        List.filter_map
          (fun i ->
            let c = st.cells.(i) in
            let mine = List.filter (fun (_, j, _, _, _) -> j = i) samples in
            let base =
              match w.baseline with
              | From_reply ->
                  List.filter_map
                    (fun (_, _, _, r, _) ->
                      Option.map (fun s -> s.Proto.o_seq_cost /. 1e6) (summary r))
                    mine
              | Run_seq | Seq_interp ->
                  List.filter_map
                    (fun (k, t) -> if k = c.L.wl.W.name then Some t else None)
                    !timings
            in
            if mine = [] || base = [] then None
            else
              let p50 = Sample.p50 (List.map (fun (_, _, l, _, _) -> l) mine) in
              Some (p50, Sample.median base /. p50))
          (List.init (Array.length st.cells) Fun.id)
      in
      let rss = s.rss_mb () in
      let pool_creates = s.pool_creates () in
      let queue_waits =
        List.filter_map
          (fun (_, _, _, r, _) ->
            Option.map (fun s -> s.Proto.o_queue_wait_ns /. 1e6) (summary r))
          samples
      in
      let pct p = Printf.sprintf "p%g (nearest rank) of %d requests" p n in
      let n_cells = List.length per_cell in
      {
        metrics =
          [
            metric "setup_s" "s"
              (Printf.sprintf "median of %d set-ups" setups)
              (Sample.median setup_times);
            metric "throughput_per_s" "1/s"
              (Printf.sprintf "median over %d rounds of requests / round time; %d requests, %d clients, closed loop"
                 (List.length rates) n w.clients)
              (Sample.median rates);
            metric "latency_ms_p50" "ms"
              (Printf.sprintf "geomean over %d cells of the cell's p50 (nearest rank); %d requests"
                 n_cells n)
              (Sample.geomean (List.map fst per_cell));
            metric "speedup_vs_seq" "x"
              (Printf.sprintf "geomean over %d cells of median baseline / p50 latency" n_cells)
              (Sample.geomean (List.map snd per_cell));
            metric "peak_rss_mb" "MB" "VmHWM of the process serving requests" rss;
          ];
        extras =
          (* The tails are reported but not bounded: on a shared 2-CPU
             machine they move by up to 40% between runs of the same code
             (see README.md). *)
          [
            metric "latency_ms_p90" "ms" (pct 90.) (Sample.percentile 90. lat);
            metric "latency_ms_p99" "ms" (pct 99.) (Sample.percentile 99. lat);
            metric "fail_ratio" "ratio" "failed / attempted"
              (Sample.ratio (float_of_int (List.length failures)) (float_of_int n));
          ]
          @
          if w.serve then
            [
              metric "serve.queue_wait_ms_p50" "ms"
                (Printf.sprintf "p50 of %d daemon-reported waits" (List.length queue_waits))
                (Sample.percentile 50. queue_waits);
              metric "serve.queue_wait_ms_p99" "ms"
                (Printf.sprintf "p99 of %d daemon-reported waits" (List.length queue_waits))
                (Sample.percentile 99. queue_waits);
            ]
          else [];
        attempted = n;
        failed = List.length failures;
        failures = List.map (fun c -> "set-up " ^ c) setup_bad @ !broken @ failures;
        pool_creates;
      })

(* ---- traced pass ---- *)

type traced = {
  layer_metrics : metric list;
  layer_extras : metric list;
  t_attempted : int;
  t_failed : int;
  t_failures : string list;
  t_pool_creates : int;
  tr : Trace.t;
}

let layer_metrics (w : workload) (s : session) (ctx : L.ctx) ~setup_bad ~untraced ~replies
    ~overheads ~pool_create_ms ~native_first ~sim_first =
  let tr = ctx.L.tr in
  let ms name = Trace.durations_ms tr name in
  let n_of name = List.length (ms name) in
  (* The median of a span's durations, as "<name>_<unit>_p50". *)
  let span_p50 unit_ name =
    metric
      (Printf.sprintf "%s_%s_p50" name unit_)
      unit_
      (Printf.sprintf "p50 (nearest rank) of %d spans" (n_of name))
      (Sample.p50 (ms name) *. if unit_ = "us" then 1e3 else 1.)
  in
  let span_ms = span_p50 "ms" and span_us = span_p50 "us" in
  let roots = Trace.roots tr in
  let root_ms = List.map (fun r -> Trace.dur r *. 1e3) roots in
  (* Each request's spans, in the order they were recorded. *)
  let by_req = Hashtbl.create 64 in
  List.iter
    (fun (sp : Trace.span) ->
      if sp.Trace.parent >= 0 then
        Hashtbl.replace by_req sp.Trace.req
          (sp :: Option.value ~default:[] (Hashtbl.find_opt by_req sp.Trace.req)))
    (List.rev (Trace.spans tr));
  let engines = [ "native.barrier"; "native.domore"; "native.speccross" ] in
  let exec_ratios, baseline_s =
    Hashtbl.fold
      (fun _ sps (ratios, base) ->
        let ratios =
          match List.find_opt (fun sp -> sp.Trace.name = "native.run_seq") sps with
          | None -> ratios
          | Some seq ->
              List.filter_map
                (fun sp ->
                  if List.mem sp.Trace.name engines then
                    Some (Trace.dur seq /. Trace.dur sp)
                  else None)
                sps
              @ ratios
        in
        let base =
          match
            List.find_opt
              (fun sp ->
                sp.Trace.path
                && (sp.Trace.name = "native.run_seq" || sp.Trace.name = "ir.seq_interp"))
              sps
          with
          | Some sp -> base +. Trace.dur sp
          | None -> base
        in
        (ratios, base))
      by_req ([], 0.)
  in
  let runs = ctx.L.native_runs in
  let stall cause =
    let name = Nat.Stallcat.name cause in
    let total =
      Sample.sum
        (List.map
           (fun (_, n) ->
             Option.value ~default:0. (List.assoc_opt name n.Nat.Nrun.stalls))
           runs)
    in
    metric
      ("native.stall_ms." ^ String.map (function '-' -> '_' | c -> c) name)
      "ms"
      (Printf.sprintf "mean blocked time per engine run, %d runs" (List.length runs))
      (Sample.ratio total (float_of_int (List.length runs)) /. 1e6)
  in
  let count name f =
    metric name "count" "total over the first traced round's engine runs"
      (float_of_int (List.fold_left (fun a (_, n) -> a + f n) 0 native_first))
  in
  let spec = List.filter (fun (nm, _) -> nm = "native.speccross") runs in
  let spec_sum f = float_of_int (List.fold_left (fun a (_, n) -> a + f n) 0 spec) in
  let sums = List.filter_map (fun (_, r) -> summary r) replies in
  let n_replies = float_of_int (List.length replies) in
  let hits = float_of_int (List.fold_left (fun a sm -> a + sm.Proto.o_cache_hits) 0 sums) in
  let misses = float_of_int (List.fold_left (fun a sm -> a + sm.Proto.o_cache_misses) 0 sums) in
  let degraded =
    float_of_int (List.length (List.filter (fun sm -> sm.Proto.o_degraded <> []) sums))
  in
  let failures =
    List.filter_map (fun (c, r) -> if ok r then None else Some (describe c r)) replies
  in
  let run_request_ms = if w.serve then ms "core.run_request" else root_ms in
  let residual_ms = List.map (fun (_, r) -> r *. 1e3) (Trace.residuals tr) in
  let untraced_p50 = Sample.p50 untraced in
  let p50_of what xs =
    Printf.sprintf "p50 (nearest rank) of %d %s" (List.length xs) what
  in
  let layer_metrics =
    [
      span_us "workloads.fresh_env";
      span_us "cache.fingerprint";
      span_us "cache.plan_replay";
      span_us "cache.profile_replay";
      span_us "ir.mtcg";
      span_ms "speccross.profile";
      span_ms "native.run_seq";
      span_ms "ir.seq_interp";
      span_us "ir.memory_diff";
      span_ms "native.barrier";
      span_ms "native.domore";
      span_ms "native.speccross";
      metric "native.exec_speedup" "x"
        (Printf.sprintf "geomean over %d engine runs of run_seq / engine"
           (List.length exec_ratios))
        (Sample.geomean exec_ratios);
    ]
    @ List.map stall Nat.Stallcat.[ Queue_empty; Barrier_wait; Checker_lag ]
    @ [
        count "native.tasks" (fun n -> n.Nat.Nrun.tasks);
        count "native.sync_conds" (fun n -> n.Nat.Nrun.conds);
        count "native.signature_checks" (fun n -> n.Nat.Nrun.checks);
        count "native.barrier_episodes" (fun n -> n.Nat.Nrun.barrier_episodes);
        metric "speccross.misspec_ratio" "ratio"
          (Printf.sprintf "misspeculations / epochs over %d native runs" (List.length spec))
          (Sample.ratio
             (spec_sum (fun n -> n.Nat.Nrun.misspecs))
             (spec_sum (fun n -> n.Nat.Nrun.invocations)));
        metric "native.pool_create_ms" "ms"
          (p50_of "one-worker pool creations" pool_create_ms)
          (Sample.p50 pool_create_ms);
        span_ms "sim.domore";
        span_ms "sim.speccross";
        metric "sim.makespan_cycles_total" "cycles"
          "total over the first traced round's simulated runs"
          (Sample.sum (List.map (fun r -> r.Xinv_parallel.Run.makespan) sim_first));
        span_us "serve.codec";
        metric "core.run_request_ms_p50" "ms"
          (p50_of "run_request calls" run_request_ms)
          (Sample.p50 run_request_ms);
        metric "core.residual_ms_p50" "ms"
          (p50_of "request residuals" residual_ms)
          (Sample.p50 residual_ms);
        metric "core.baseline_share" "ratio"
          "sequential-baseline spans / request wall, summed"
          (Sample.ratio baseline_s (Sample.sum (List.map Trace.dur roots)));
        metric "core.degrade_ratio" "ratio" "degraded replies / replies"
          (Sample.ratio degraded n_replies);
        metric "cache.hit_ratio" "ratio" "hits / (hits + misses) over replies"
          (Sample.ratio hits (hits +. misses));
        metric "obs.trace_overhead_pct" "%"
          (Printf.sprintf "traced p50 of %d vs untraced p50 of %d requests"
             (List.length root_ms) (List.length untraced))
          (100. *. (Sample.p50 root_ms -. untraced_p50) /. untraced_p50);
      ]
  in
  let optional name = if n_of name > 0 then [ span_ms name ] else [] in
  let layer_extras =
    (* With one worker no domain ever waits on another worker's sync
       condition, throttle or rally, and queues rarely fill: these causes
       read 0, or close to it, on most runs. *)
    List.map stall Nat.Stallcat.[ Queue_full; Sync_cond; Throttle; Rally ]
    @ (if w.serve then
       [
         metric "serve.roundtrip_ms_p50" "ms" (p50_of "round trips" root_ms)
           (Sample.p50 root_ms);
         metric "serve.overhead_ms_p50" "ms"
           (p50_of "round trips minus in-process run_request" overheads)
           (Sample.p50 overheads);
       ]
     else [])
    @ (if n_of "cache.open" > 0 then [ span_us "cache.open" ] else [])
    @ optional "sim.barrier"
  in
  {
    layer_metrics;
    layer_extras;
    t_attempted = List.length replies;
    t_failed = List.length failures;
    t_failures = List.map (fun c -> "set-up " ^ c) setup_bad @ failures;
    t_pool_creates = s.pool_creates ();
    tr;
  }

(* One client, one request at a time.  Each request is sent twice: once
   untraced, and once after its pipeline was replayed layer by layer, as
   the root span of that replay. *)
let traced (w : workload) ~seed ~seconds ~dir =
  let s, _, setup_bad = set_up w ~dir:(Filename.concat dir "setup-0") in
  Fun.protect ~finally:s.close (fun () ->
      let pool, own_pool =
        match s.pool with
        | Some p -> (p, false)
        | None -> (Nat.Pool.create ~workers:1, true)
      in
      Fun.protect
        ~finally:(fun () -> if own_pool then Nat.Pool.shutdown pool)
        (fun () ->
          let probe_dir = Filename.concat dir "probe-cache" in
          let ctx =
            L.make_ctx ~work:s.work ~pool ?cache_dir:s.cache_dir ~probe_dir
              ~verify:w.verify ~socket:w.socket ()
          in
          L.warm ctx w.cells;
          let tr = ctx.L.tr in
          let pool_create_ms = ref [] in
          (* Counts are taken over the first round, which is the same work
             on every run. *)
          let first_round = ref None and rounds = ref 0 in
          let on_round () =
            incr rounds;
            if !rounds = 2 then first_round := Some (ctx.L.native_runs, ctx.L.sim_runs);
            let t0 = now () in
            let p = Nat.Pool.create ~workers:1 in
            pool_create_ms := ((now () -. t0) *. 1e3) :: !pool_create_ms;
            Nat.Pool.shutdown p
          in
          let st = stream ~seed ~seconds ~on_round w.cells in
          let caller = s.connect () in
          let untraced = ref [] and replies = ref [] and overheads = ref [] in
          let rec loop req =
            match next st with
            | None -> ()
            | Some (_, i, a) ->
                let c = st.cells.(i) in
                let call () = send caller ~verify:w.verify c a in
                let t0 = now () in
                let r0 = call () in
                untraced := ((now () -. t0) *. 1e3) :: !untraced;
                let root = Trace.reserve tr in
                L.replay ctx ~req ~root c;
                let t0 = now () in
                let r = call () in
                let t1 = now () in
                Trace.add tr ~id:root ~name:"request" ~req ~parent:(-1) ~path:true t0 t1;
                replies := (c, r) :: (c, r0) :: !replies;
                (match summary r with
                | Some sm when w.serve ->
                    (* The daemon reports the wait; it sits inside the
                       round trip, right after admission. *)
                    Trace.add tr ~name:"serve.queue_wait" ~req ~parent:root ~path:true t0
                      (t0 +. (sm.Proto.o_queue_wait_ns /. 1e9));
                    let t = now () in
                    ignore
                      (run_inproc c
                         (core_request ~work:s.work ~pool
                            ~cache:(if s.cache_dir = None then `Off else `Rw)
                            ?cache_dir:s.cache_dir ~verify:w.verify c));
                    let t' = now () in
                    Trace.add tr ~name:"core.run_request" ~req ~parent:root ~path:false t t';
                    overheads := ((t1 -. t0 -. (t' -. t)) *. 1e3) :: !overheads
                | _ -> ());
                L.codec ctx ~req ~root (serve_request ~verify:w.verify ~cache:`Off c a) r;
                loop (req + 1)
          in
          Fun.protect ~finally:caller.hang_up (fun () -> loop 0);
          let native_first, sim_first =
            match !first_round with
            | Some r -> r
            | None -> (ctx.L.native_runs, ctx.L.sim_runs)
          in
          layer_metrics w s ctx ~setup_bad ~untraced:!untraced ~replies:!replies
            ~overheads:!overheads ~pool_create_ms:!pool_create_ms ~native_first
            ~sim_first))
