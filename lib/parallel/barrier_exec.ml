module Sim = Xinv_sim
module Ir = Xinv_ir
module Obs = Xinv_obs

type invocation = {
  tid : int;
  outer : int;
  index : int;
  inner : Ir.Program.inner;
  env : Ir.Env.t;
  trip : int;
  work_factor : float;
  sync : unit -> unit;
}

let region ?(machine = Sim.Machine.default) ?(trace = false) ?obs ~threads ~track
    ~technique (p : Ir.Program.t) env share =
  assert (threads > 0);
  let eng = Sim.Engine.create ~trace () in
  let bar = Sim.Barrier.create ~parties:threads in
  let barrier_cost =
    machine.Sim.Machine.barrier_base
    +. (machine.Sim.Machine.barrier_per_thread *. float_of_int threads)
  in
  let wf = Sim.Machine.work_factor machine ~threads in
  let tasks = ref 0 and invocations = ref 0 in
  let sync tid () =
    match obs with
    | None -> Sim.Barrier.wait ~cost:barrier_cost bar
    | Some o ->
        let t0 = Sim.Proc.now () in
        Sim.Barrier.wait ~cost:barrier_cost bar;
        let dur = Sim.Proc.now () -. t0 -. barrier_cost in
        Obs.Recorder.stall o ~at:(Sim.Proc.now ()) ~domain:tid Obs.Cause.Barrier_wait dur;
        Obs.Recorder.emit o ~at:(Sim.Proc.now ()) ~domain:tid Obs.Flight.Barrier_release
          ~a:(Sim.Barrier.waits bar) ~b:0
  in
  let worker tid () =
    for t = 0 to p.Ir.Program.outer_trip - 1 do
      let env_t = Ir.Env.with_outer env t in
      List.iteri
        (fun ii (il : Ir.Program.inner) ->
          (* Sequential region: semantics once (thread 0), cost everywhere. *)
          if tid = 0 then
            List.iter (fun (s : Ir.Stmt.t) -> s.Ir.Stmt.exec env_t) il.Ir.Program.pre;
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
          share
            { tid; outer = t; index = ii; inner = il; env = env_t; trip; work_factor = wf;
              sync = sync tid };
          sync tid ())
        p.Ir.Program.inners
    done
  in
  for tid = 0 to threads - 1 do
    ignore (Sim.Engine.spawn eng ~name:(Printf.sprintf "%s%d" track tid) (worker tid))
  done;
  Sim.Engine.run eng;
  Run.make ~technique ~threads ~makespan:(Sim.Engine.now eng) ~engine:eng ~tasks:!tasks
    ~invocations:!invocations ~barrier_episodes:(Sim.Barrier.waits bar) ?recorder:obs ()

let commit_cells (p : Ir.Program.t) =
  let cells =
    Array.init p.Ir.Program.outer_trip (fun _ ->
        Array.of_list
          (List.map (fun _ -> Sim.Mono_cell.create ~init:(-1) ()) p.Ir.Program.inners))
  in
  fun inv -> cells.(inv.outer).(inv.index)

let run ?(machine = Sim.Machine.default) ?(nlocks = 64) ?trace ?obs ~threads ~plan
    (p : Ir.Program.t) env =
  let locks =
    Array.init nlocks (fun _ ->
        Sim.Mutex.create ~acquire_cost:machine.Sim.Machine.lock_cost ())
  in
  let total_words = Ir.Memory.total_words env.Ir.Env.mem in
  let ctxs =
    Array.init threads (fun tid -> Intra.make_ctx ~machine ~threads ~tid ~locks ~total_words)
  in
  let bodies = Ir.Footprint.bodies env.Ir.Env.mem p in
  let first = List.hd p.Ir.Program.inners in
  let technique = Printf.sprintf "%s+barrier" (Intra.name (plan first.Ir.Program.ilabel)) in
  region ~machine ?trace ?obs ~threads ~track:"worker" ~technique p env (fun inv ->
      let il = inv.inner in
      let tech = plan il.Ir.Program.ilabel in
      let ctx = ctxs.(inv.tid) and body = bodies il in
      if Intra.visits_all_iterations tech then
        for j = 0 to inv.trip - 1 do
          Intra.exec_iteration tech ctx (Ir.Env.with_inner inv.env j) body
        done
      else begin
        let j = ref inv.tid in
        while !j < inv.trip do
          Intra.exec_iteration tech ctx (Ir.Env.with_inner inv.env !j) body;
          j := !j + threads
        done
      end)
