module Sim = Xinv_sim
module Ir = Xinv_ir
module Obs = Xinv_obs

let run ?(machine = Sim.Machine.default) ?(nlocks = 64) ?(trace = false) ?obs ~threads
    ~plan (p : Ir.Program.t) env =
  assert (threads > 0);
  let eng = Sim.Engine.create ~trace () in
  let bar = Sim.Barrier.create ~parties:threads in
  let locks =
    Array.init nlocks (fun _ ->
        Sim.Mutex.create ~acquire_cost:machine.Sim.Machine.lock_cost ())
  in
  let total_words = Ir.Memory.total_words env.Ir.Env.mem in
  let barrier_cost =
    machine.Sim.Machine.barrier_base
    +. (machine.Sim.Machine.barrier_per_thread *. float_of_int threads)
  in
  let tasks = ref 0 and invocations = ref 0 in
  let worker tid () =
    let ctx = Intra.make_ctx ~machine ~threads ~tid ~locks ~total_words in
    for t = 0 to p.Ir.Program.outer_trip - 1 do
      let env_t = Ir.Env.with_outer env t in
      List.iter
        (fun (il : Ir.Program.inner) ->
          let tech = plan il.Ir.Program.ilabel in
          (* Sequential region: semantics once (thread 0), cost everywhere. *)
          if tid = 0 then
            List.iter (fun (s : Ir.Stmt.t) -> s.Ir.Stmt.exec env_t) il.Ir.Program.pre;
          let wf = Sim.Machine.work_factor machine ~threads in
          List.iter
            (fun (s : Ir.Stmt.t) ->
              let cat =
                if tid = 0 then Sim.Category.Sequential else Sim.Category.Redundant
              in
              Sim.Proc.advance ~label:s.Ir.Stmt.name cat (wf *. s.Ir.Stmt.cost env_t))
            il.Ir.Program.pre;
          let trip = il.Ir.Program.trip env_t in
          if tid = 0 then begin
            incr invocations;
            tasks := !tasks + trip
          end;
          if Intra.visits_all_iterations tech then
            for j = 0 to trip - 1 do
              Intra.exec_iteration tech ctx (Ir.Env.with_inner env_t j) il
            done
          else begin
            let j = ref tid in
            while !j < trip do
              Intra.exec_iteration tech ctx (Ir.Env.with_inner env_t !j) il;
              j := !j + threads
            done
          end;
          (match obs with
          | None -> Sim.Barrier.wait ~cost:barrier_cost bar
          | Some o ->
              let t0 = Sim.Proc.now () in
              Sim.Barrier.wait ~cost:barrier_cost bar;
              let dur = Sim.Proc.now () -. t0 -. barrier_cost in
              Obs.Recorder.stall o ~at:(Sim.Proc.now ()) ~domain:tid Obs.Cause.Barrier_wait dur;
              Obs.Recorder.emit o ~at:(Sim.Proc.now ()) ~domain:tid Obs.Flight.Barrier_release
                ~a:(Sim.Barrier.waits bar) ~b:0))
        p.Ir.Program.inners
    done
  in
  for tid = 0 to threads - 1 do
    ignore (Sim.Engine.spawn eng ~name:(Printf.sprintf "worker%d" tid) (worker tid))
  done;
  Sim.Engine.run eng;
  Run.make ~technique:(Printf.sprintf "%s+barrier" (Intra.name (plan (List.hd p.Ir.Program.inners).Ir.Program.ilabel)))
    ~threads ~makespan:(Sim.Engine.now eng) ~engine:eng ~tasks:!tasks
    ~invocations:!invocations ~barrier_episodes:(Sim.Barrier.waits bar) ?recorder:obs ()
