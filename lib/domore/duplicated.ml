module Sim = Xinv_sim
module Ir = Xinv_ir
module Rt = Xinv_runtime

let iteration_executor ~(config : Domore.config) ~(plan : Ir.Mtcg.plan) ~cells ~shadow
    ~deps ?obs ~iternum ~tid env (il : Ir.Program.inner) =
  let module Obs = Xinv_obs in
  let machine = config.Domore.machine in
  let slice = Ir.Mtcg.slice_for plan il.Ir.Program.ilabel in
  (* Duplicated scheduling work: every thread pays it for every iteration. *)
  Sim.Proc.advance ~label:"computeAddr" Sim.Category.Redundant
    (Ir.Slice.cost_per_iter slice +. machine.Sim.Machine.sched_per_iter);
  let owner =
    Policy.assign config.Domore.policy slice shadow deps ~loads:None
      ~threads:config.Domore.workers ~iter:!iternum ~slot:!iternum env
  in
  Sim.Proc.advance ~label:"shadow" Sim.Category.Redundant
    (machine.Sim.Machine.shadow_per_addr
    *. float_of_int (List.length slice.Ir.Slice.reads + List.length slice.Ir.Slice.writes));
  if owner = tid then begin
    let wf = Sim.Machine.work_factor machine ~threads:config.Domore.workers in
    (* Conditions are self-produced and self-consumed (Figure 3.9). *)
    Sim.Proc.advance ~label:"conds" Sim.Category.Queue
      (float_of_int (Rt.Shadow.Deps.length deps)
      *. (machine.Sim.Machine.queue_produce +. machine.Sim.Machine.queue_consume));
    Rt.Shadow.Deps.iter
      (fun ~tid:dt ~iter:di ->
        match obs with
        | None -> Sim.Mono_cell.wait_ge ~cat:Sim.Category.Sync_wait cells.(dt) di
        | Some o ->
            Obs.Metrics.incr
              (Obs.Metrics.counter (Obs.Recorder.metrics o) "domore.sync_conds_forwarded");
            Obs.Recorder.emit o ~at:(Sim.Proc.now ()) ~domain:tid Obs.Flight.Sync_send
              ~a:di ~b:tid;
            let t0 = Sim.Proc.now () in
            Sim.Mono_cell.wait_ge ~cat:Sim.Category.Sync_wait cells.(dt) di;
            Obs.Recorder.stall o ~at:(Sim.Proc.now ()) ~domain:tid Obs.Cause.Sync_cond
              (Sim.Proc.now () -. t0))
      deps;
    List.iter
      (fun (s : Ir.Stmt.t) ->
        Sim.Proc.work ~label:s.Ir.Stmt.name (wf *. s.Ir.Stmt.cost env);
        s.Ir.Stmt.exec env)
      il.Ir.Program.body;
    Sim.Mono_cell.set cells.(tid) !iternum
  end;
  incr iternum

let run ?config ?obs ~(plan : Ir.Mtcg.plan) (p : Ir.Program.t) env =
  let config = match config with Some c -> c | None -> Domore.default_config ~workers:4 in
  let workers = config.Domore.workers in
  assert (workers > 0);
  if plan.Ir.Mtcg.scheduler_extra <> [] then
    invalid_arg "Duplicated.run: body statements re-partitioned into the scheduler";
  let eng = Sim.Engine.create () in
  let cells = Array.init workers (fun _ -> Sim.Mono_cell.create ~init:(-1) ()) in
  let tasks = ref 0 in
  let worker tid () =
    let shadow = Rt.Shadow.create () in
    let deps = Rt.Shadow.Deps.create () in
    let iternum = ref 0 in
    for t = 0 to p.Ir.Program.outer_trip - 1 do
      let env_t = Ir.Env.with_outer env t in
      List.iter
        (fun (il : Ir.Program.inner) ->
          (* Sequential region duplicated on every thread: threads may be in
             different outer iterations, so each executes its own copy; the
             privatizability requirement (per-invocation slots, deterministic
             values) makes the duplicated writes idempotent. *)
          let wf = Sim.Machine.work_factor config.Domore.machine ~threads:workers in
          List.iter
            (fun (s : Ir.Stmt.t) ->
              let cat =
                if tid = 0 then Sim.Category.Sequential else Sim.Category.Redundant
              in
              Sim.Proc.advance ~label:s.Ir.Stmt.name cat (wf *. s.Ir.Stmt.cost env_t);
              s.Ir.Stmt.exec env_t)
            il.Ir.Program.pre;
          let trip = il.Ir.Program.trip env_t in
          if tid = 0 then tasks := !tasks + trip;
          for j = 0 to trip - 1 do
            iteration_executor ~config ~plan ~cells ~shadow ~deps ?obs ~iternum ~tid
              (Ir.Env.with_inner env_t j) il
          done)
        p.Ir.Program.inners
    done
  in
  for w = 0 to workers - 1 do
    ignore (Sim.Engine.spawn eng ~name:(Printf.sprintf "dup%d" w) (worker w))
  done;
  Sim.Engine.run eng;
  Xinv_parallel.Run.make ~technique:"DOMORE-dup" ~threads:workers
    ~makespan:(Sim.Engine.now eng) ~engine:eng ~tasks:!tasks
    ~invocations:(Ir.Program.invocations p) ?recorder:obs ()
