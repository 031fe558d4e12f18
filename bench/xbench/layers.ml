(* Replays one request's pipeline by calling each layer's public functions
   in the order [Crossinv.run_request] calls them, with the configurations
   the facade builds, and records a span around each call.

   The order on the native backend: a fresh environment and the sequential
   baseline ([run_seq]), a second fresh environment, the analysis (opening
   the cache and replaying a plan or profile, or deriving it fresh), the
   engine, and [Memory.diff] when the request verifies.  On the simulated
   backend the baseline is the sequential interpreter and the engine is the
   simulator's.  Serve requests add the wire codec and the daemon's queue
   wait. *)

module Cx = Xinv_core.Crossinv
module W = Xinv_workloads.Workload
module Nat = Xinv_native
module Ir = Xinv_ir
module Cache = Xinv_cache
module Prof = Xinv_speccross.Profiler
module Proto = Xinv_serve.Protocol

type backend = Native | Sim

type cell = {
  wl : W.t;
  tech : Cx.technique;
  input : W.input;
  backend : backend;
  threads : int;
}

let cell_name c = Printf.sprintf "%s/%s" c.wl.W.name (Cx.technique_name c.tech)

(* How the workload's own requests run, and where the replay records. *)
type ctx = {
  tr : Trace.t;
  work : Nat.Work.t;  (** the requests' work model *)
  pool : Nat.Pool.t;  (** one worker, as every workload's requests use *)
  cache_dir : string option;  (** the requests' analysis cache, if on *)
  probe : Cache.Analysis.t;  (** warm store for cache-replay probes *)
  verify : bool;
  socket : bool;  (** requests cross the wire codec *)
  mutable native_runs : (string * Nat.Nrun.t) list;
  mutable sim_runs : Xinv_parallel.Run.t list;
}

let make_ctx ~work ~pool ?cache_dir ~probe_dir ~verify ~socket () =
  {
    tr = Trace.create ();
    work;
    pool;
    cache_dir;
    probe = Cache.Analysis.make ~dir:probe_dir ~mode:`Rw ();
    verify;
    socket;
    native_runs = [];
    sim_runs = [];
  }

(* ---- the facade's configurations ---- *)

let policy wl =
  if wl.W.mem_partition then Xinv_domore.Policy.Mem_partition
  else Xinv_domore.Policy.Round_robin

let train_of = function W.Ref_spec -> W.Train_spec | _ -> W.Train

let spec_distance (p : Prof.t) ~workers =
  match p.Prof.min_task_distance with
  | Some d -> max workers d
  | None -> max (4 * workers) (int_of_float (4. *. p.Prof.avg_tasks_per_epoch))

let segmented env =
  Xinv_runtime.Signature.Segmented (Ir.Memory.bounds env.Ir.Env.mem)

type analysis = Nothing | Plan of Ir.Mtcg.plan | Profile of Prof.t

let needs = function
  | Cx.Domore | Cx.Domore_dup -> `Plan
  | Cx.Speccross | Cx.Speccross_inject _ -> `Profile
  | _ -> `Nothing

let inject = function Cx.Speccross_inject e -> Some (e, 0) | _ -> None

let plan_of = function
  | Ir.Mtcg.Plan p -> Plan p
  | Ir.Mtcg.Inapplicable why -> failwith ("DOMORE inapplicable: " ^ why)

(* The engine a native run of [tech] executes, and the span naming it. *)
let native_engine ctx c prog env an =
  let work = ctx.work and pool = ctx.pool and threads = c.threads in
  let workers = max 1 (threads - 1) in
  let barrier () =
    ( "native.barrier",
      fun () ->
        Nat.Nbarrier.run ~pool ~work ~grain:1 ~threads ~plan:(W.plan_fn c.wl)
          prog env )
  in
  match (c.tech, an) with
  | Cx.Sequential, _ -> ("native.run_seq", fun () -> Nat.Nbarrier.run_seq ~work prog env)
  | Cx.Barrier, _ -> barrier ()
  | Cx.Domore, Plan plan ->
      let config =
        { (Nat.Ndomore.default_config ~workers) with
          Nat.Ndomore.policy = policy c.wl; work }
      in
      ("native.domore", fun () -> Nat.Ndomore.run ~pool ~config ~plan prog env)
  | (Cx.Speccross | Cx.Speccross_inject _), Profile p ->
      if not (Prof.profitable p ~workers) then barrier ()
      else
        let config =
          { (Nat.Nspec.default_config ~workers) with
            Nat.Nspec.sig_kind = segmented env;
            checkpoint_every = 1000;
            spec_distance = spec_distance p ~workers;
            mode_of = Cx.spec_mode_of_plan c.wl;
            inject_misspec = inject c.tech;
            work }
        in
        ("native.speccross", fun () -> Nat.Nspec.run ~pool ~config prog env)
  | _ -> invalid_arg ("no native engine for " ^ cell_name c)

let sim_engine c prog env an =
  let machine = Xinv_sim.Machine.default and threads = c.threads in
  let workers = max 1 (threads - 1) in
  let barrier () =
    ( "sim.barrier",
      fun () ->
        Xinv_parallel.Barrier_exec.run ~machine ~threads ~plan:(W.plan_fn c.wl)
          prog env )
  in
  match (c.tech, an) with
  | Cx.Barrier, _ -> barrier ()
  | Cx.Domore, Plan plan ->
      let config = { Xinv_domore.Domore.machine; policy = policy c.wl; workers } in
      ("sim.domore", fun () -> Xinv_domore.Domore.run ~config ~plan prog env)
  | (Cx.Speccross | Cx.Speccross_inject _), Profile p ->
      if not (Prof.profitable p ~workers) then barrier ()
      else
        let config =
          {
            Xinv_speccross.Runtime.machine;
            workers;
            sig_kind = segmented env;
            checkpoint_every = 1000;
            spec_distance = spec_distance p ~workers;
            mode_of = Cx.spec_mode_of_plan c.wl;
            inject_misspec = inject c.tech;
            non_spec_barriers = false;
            tm_style = false;
          }
        in
        ("sim.speccross", fun () -> Xinv_speccross.Runtime.run ~config prog env)
  | _ -> invalid_arg ("no simulated engine for " ^ cell_name c)

(* ---- replay ---- *)

let fresh c input = c.wl.W.fresh_env input

(* Times a call under a span name, or just makes it. *)
type spanner = { span : 'a. string -> (unit -> 'a) -> 'a }

let untimed = { span = (fun _ f -> f ()) }

(* Analysis for [c], through [cache] (replayed) or fresh.  The profile runs
   on a fresh training environment, as the facade's. *)
let analyse { span } c prog env ~cache =
  match (needs c.tech, cache) with
  | `Nothing, _ -> Nothing
  | `Plan, Some a ->
      plan_of (span "cache.plan_replay" (fun () -> Cache.Analysis.plan a prog env))
  | `Plan, None ->
      plan_of (span "ir.mtcg" (fun () -> Ir.Mtcg.generate prog env))
  | `Profile, cache ->
      let ti = train_of c.input in
      let tprog = c.wl.W.program ti in
      let tenv = span "workloads.fresh_env" (fun () -> fresh c ti) in
      Profile
        (match cache with
        | Some a ->
            span "cache.profile_replay" (fun () -> Cache.Analysis.profile a tprog tenv)
        | None -> span "speccross.profile" (fun () -> Prof.profile tprog tenv))

(* Fills the probe store with every analysis the replays of [cells] look
   up, so the probes time hits. *)
let warm ctx cells =
  List.iter
    (fun c ->
      List.iter
        (fun input ->
          ignore
            (analyse untimed { c with input } (c.wl.W.program input)
               (fresh c input) ~cache:(Some ctx.probe)))
        [ c.input; W.Train ])
    cells

(* Replays [c]'s pipeline as request [req] (root span [root]), then runs the
   layers the request bypasses as probes.  Returns nothing: everything
   lands in the trace and the context's engine-run lists. *)
let replay ctx ~req ~root c =
  let tr = ctx.tr in
  let timer path = { span = (fun name f -> Trace.span tr ~name ~req ~parent:root ~path f) } in
  let on_path = timer true and probe = timer false in
  let prog = c.wl.W.program c.input in
  let seq_env = on_path.span "workloads.fresh_env" (fun () -> fresh c c.input) in
  (match c.backend with
  | Native ->
      ignore
        (on_path.span "native.run_seq" (fun () ->
             Nat.Nbarrier.run_seq ~work:ctx.work prog seq_env))
  | Sim -> ignore (on_path.span "ir.seq_interp" (fun () -> Ir.Seq_interp.run prog seq_env)));
  let env = on_path.span "workloads.fresh_env" (fun () -> fresh c c.input) in
  let cache =
    match ctx.cache_dir with
    | None -> None
    | Some dir ->
        Some
          (on_path.span "cache.open" (fun () ->
               Cache.Analysis.make ~dir ~mode:`Rw ()))
  in
  (* The fingerprint the cache keys this request's analysis by. *)
  ignore (probe.span "cache.fingerprint" (fun () -> Cache.Fingerprint.keyed prog env));
  let an = analyse on_path c prog env ~cache in
  (match c.backend with
  | Native ->
      let name, run = native_engine ctx c prog env an in
      let n = on_path.span name run in
      ctx.native_runs <- (name, n) :: ctx.native_runs
  | Sim ->
      let name, run = sim_engine c prog env an in
      ctx.sim_runs <- on_path.span name run :: ctx.sim_runs);
  let diff () = Ir.Memory.diff seq_env.Ir.Env.mem env.Ir.Env.mem in
  if ctx.verify && c.tech <> Cx.Sequential then ignore (on_path.span "ir.memory_diff" diff)
  else ignore (probe.span "ir.memory_diff" diff);
  (* Probes: the analysis the request did not take ... *)
  let alt_cache = match cache with Some _ -> None | None -> Some ctx.probe in
  ignore (analyse probe c prog (fresh c c.input) ~cache:alt_cache);
  (* ... the other backend's baseline and engines on the same workload. *)
  match c.backend with
  | Native ->
      ignore (probe.span "ir.seq_interp" (fun () -> Ir.Seq_interp.run prog (fresh c c.input)));
      if needs c.tech <> `Nothing then begin
        let sc = { c with backend = Sim; input = W.Train; threads = 8 } in
        let sprog = c.wl.W.program W.Train in
        let senv = fresh sc W.Train in
        let an = analyse untimed sc sprog senv ~cache:(Some ctx.probe) in
        let name, run = sim_engine sc sprog senv an in
        ctx.sim_runs <- probe.span name run :: ctx.sim_runs
      end
  | Sim ->
      let nc = { c with backend = Native; threads = 2 } in
      ignore
        (probe.span "native.run_seq" (fun () ->
             Nat.Nbarrier.run_seq ~work:ctx.work prog (fresh c c.input)));
      List.iter
        (fun tech ->
          let nc = { nc with tech } in
          let env = fresh nc nc.input in
          let an = analyse untimed nc prog env ~cache:(Some ctx.probe) in
          let name, run = native_engine ctx nc prog env an in
          ctx.native_runs <- (name, probe.span name run) :: ctx.native_runs)
        [ Cx.Barrier; c.tech ]

(* The wire codec one request and its reply go through: the client encodes,
   the daemon decodes, the daemon encodes the reply, the client decodes. *)
let codec ctx ~req ~root (sreq : Xinv_serve.Request.t) (reply : Proto.server_msg) =
  Trace.span ctx.tr ~name:"serve.codec" ~req ~parent:root ~path:ctx.socket (fun () ->
      ignore (Proto.decode_client (Proto.encode_client (Proto.Run sreq)));
      ignore (Proto.decode_server (Proto.encode_server reply)))
