module Sim = Xinv_sim
module Ir = Xinv_ir
module Rt = Xinv_runtime

type config = { machine : Sim.Machine.t; policy : Policy.t; workers : int }

let default_config ~workers =
  { machine = Sim.Machine.default; policy = Policy.Round_robin; workers }

(* Queue payload.  Sync carries a {!Rt.Sync_cond.to_int}-encoded condition:
   the simulator's channels and the native backend's atomic int queues share
   one wire format. *)
type msg =
  | Sync of int
  | Do of { t : int; j : int; inner : int; iter : int }

let run ?config ?obs ?(trace = false) ~(plan : Ir.Mtcg.plan) (p : Ir.Program.t) env =
  let config = match config with Some c -> c | None -> default_config ~workers:3 in
  let { machine; policy; workers } = config in
  assert (workers > 0);
  if plan.Ir.Mtcg.scheduler_extra <> [] then
    invalid_arg "Domore.run: body statements re-partitioned into the scheduler";
  let module Obs = Xinv_obs in
  let m_conds, m_dispatched, h_occupancy =
    match obs with
    | Some o ->
        let m = Obs.Recorder.metrics o in
        ( Some (Obs.Metrics.counter m "domore.sync_conds_forwarded"),
          Some (Obs.Metrics.counter m "domore.tasks_dispatched"),
          Some (Obs.Metrics.histogram m "domore.queue_occupancy") )
    | None -> (None, None, None)
  in
  let eng = Sim.Engine.create ~trace () in
  let queues =
    Array.init workers (fun _ ->
        Sim.Channel.create ~produce_cost:machine.Sim.Machine.queue_produce
          ~consume_cost:machine.Sim.Machine.queue_consume ())
  in
  let cells = Array.init workers (fun _ -> Sim.Mono_cell.create ~init:(-1) ()) in
  let shadow = Rt.Shadow.create () in
  let wf = Sim.Machine.work_factor machine ~threads:(workers + 1) in
  let iternum = ref 0 in
  let conds = ref 0 in
  let bodies = Array.of_list p.Ir.Program.inners in
  (* Scratch reused across every iteration: the queue-load snapshot for the
     scheduling policy and the deduplicated dependence set. *)
  let loads = Array.make workers 0 in
  let loads_opt = Some loads in
  let deps = Rt.Shadow.Deps.create () in
  let scheduler () =
    for t = 0 to p.Ir.Program.outer_trip - 1 do
      let env_t = Ir.Env.with_outer env t in
      Array.iteri
        (fun ii (il : Ir.Program.inner) ->
          List.iter
            (fun (s : Ir.Stmt.t) ->
              Sim.Proc.advance ~label:s.Ir.Stmt.name Sim.Category.Sequential
                (wf *. s.Ir.Stmt.cost env_t);
              s.Ir.Stmt.exec env_t)
            il.Ir.Program.pre;
          let slice = Ir.Mtcg.slice_for plan il.Ir.Program.ilabel in
          let slice_cost = Ir.Slice.cost_per_iter slice in
          (* The slice's access count is static, so the per-iteration shadow
             charge is too. *)
          let shadow_cost =
            machine.Sim.Machine.shadow_per_addr
            *. float_of_int
                 (List.length slice.Ir.Slice.reads + List.length slice.Ir.Slice.writes)
          in
          let trip = il.Ir.Program.trip env_t in
          for j = 0 to trip - 1 do
            let env_j = Ir.Env.with_inner env_t j in
            Sim.Proc.advance ~label:"computeAddr" Sim.Category.Runtime
              (slice_cost +. machine.Sim.Machine.sched_per_iter);
            for w = 0 to workers - 1 do
              loads.(w) <- Sim.Channel.length queues.(w)
            done;
            (match obs with
            | None -> ()
            | Some o ->
                let at = Sim.Proc.now () in
                for w = 0 to workers - 1 do
                  (match h_occupancy with
                  | Some h -> Obs.Metrics.observe h (float_of_int loads.(w))
                  | None -> ());
                  Obs.Recorder.emit o ~at ~domain:0 Obs.Flight.Queue_sample ~a:w
                    ~b:loads.(w)
                done);
            let tid =
              Policy.assign policy slice shadow deps ~loads:loads_opt ~threads:workers
                ~iter:!iternum ~slot:!iternum env_j
            in
            Sim.Proc.advance ~label:"shadow" Sim.Category.Runtime shadow_cost;
            Rt.Shadow.Deps.iter
              (fun ~tid:dt ~iter:di ->
                incr conds;
                (match obs with
                | None -> ()
                | Some o ->
                    (match m_conds with Some c -> Obs.Metrics.incr c | None -> ());
                    Obs.Recorder.emit o ~at:(Sim.Proc.now ()) ~domain:0
                      Obs.Flight.Sync_send ~a:di ~b:(tid + 1));
                Sim.Channel.produce queues.(tid)
                  (Sync (Rt.Sync_cond.to_int (Rt.Sync_cond.Wait { dep_tid = dt; dep_iter = di }))))
              deps;
            (match obs with
            | None -> ()
            | Some o ->
                (match m_dispatched with Some c -> Obs.Metrics.incr c | None -> ());
                Obs.Recorder.emit o ~at:(Sim.Proc.now ()) ~domain:0 Obs.Flight.Dispatch
                  ~a:!iternum ~b:(tid + 1));
            Sim.Channel.produce queues.(tid) (Do { t; j; inner = ii; iter = !iternum });
            incr iternum
          done)
        bodies
    done;
    Array.iter
      (fun q -> Sim.Channel.produce q (Sync (Rt.Sync_cond.to_int Rt.Sync_cond.End_token)))
      queues
  in
  let worker w () =
    (* Engine tid of worker [w]: the scheduler is spawned first as thread 0. *)
    let tid = w + 1 in
    let consume q =
      match obs with
      | None -> Sim.Channel.consume q
      | Some o ->
          let t0 = Sim.Proc.now () in
          let msg = Sim.Channel.consume q in
          let dur = Sim.Proc.now () -. t0 -. machine.Sim.Machine.queue_consume in
          Obs.Recorder.stall o ~at:(Sim.Proc.now ()) ~domain:tid Obs.Cause.Queue_empty dur;
          msg
    in
    let continue_ = ref true in
    while !continue_ do
      match consume queues.(w) with
      | Sync word -> (
          match Rt.Sync_cond.of_int word with
          | Rt.Sync_cond.End_token -> continue_ := false
          | Rt.Sync_cond.No_sync _ -> ()
          | Rt.Sync_cond.Wait { dep_tid; dep_iter } -> (
              match obs with
              | None ->
                  Sim.Mono_cell.wait_ge ~cat:Sim.Category.Sync_wait cells.(dep_tid)
                    dep_iter
              | Some o ->
                  let t0 = Sim.Proc.now () in
                  Sim.Mono_cell.wait_ge ~cat:Sim.Category.Sync_wait cells.(dep_tid)
                    dep_iter;
                  Obs.Recorder.stall o ~at:(Sim.Proc.now ()) ~domain:tid
                    Obs.Cause.Sync_cond (Sim.Proc.now () -. t0)))
      | Do { t; j; inner; iter } ->
          let il = bodies.(inner) in
          let env_j = Ir.Env.with_inner (Ir.Env.with_outer env t) j in
          List.iter
            (fun (s : Ir.Stmt.t) ->
              Sim.Proc.work ~label:s.Ir.Stmt.name (wf *. s.Ir.Stmt.cost env_j);
              s.Ir.Stmt.exec env_j)
            il.Ir.Program.body;
          Sim.Mono_cell.set cells.(w) iter
    done
  in
  let _sched = Sim.Engine.spawn eng ~name:"scheduler" scheduler in
  for w = 0 to workers - 1 do
    ignore (Sim.Engine.spawn eng ~name:(Printf.sprintf "worker%d" w) (worker w))
  done;
  Sim.Engine.run eng;
  Xinv_parallel.Run.make ~technique:"DOMORE" ~threads:(workers + 1)
    ~makespan:(Sim.Engine.now eng) ~engine:eng ~tasks:!iternum
    ~invocations:(Ir.Program.invocations p) ~checks:!conds ?recorder:obs ()

let scheduler_worker_ratio (r : Xinv_parallel.Run.t) =
  let eng = r.Xinv_parallel.Run.engine in
  let sched = Sim.Engine.busy eng 0 -. Sim.Engine.charged eng 0 Sim.Category.Idle in
  let work = Sim.Engine.total eng Sim.Category.Work in
  if work <= 0. then infinity else sched /. work
