module Ir = Xinv_ir
module Intra = Xinv_parallel.Intra
module Obs = Xinv_obs

let exec_pre work env_t (il : Ir.Program.inner) =
  List.iter (Work.exec work env_t) il.Ir.Program.pre

let run_invocation_seq work env_t (il : Ir.Program.inner) =
  exec_pre work env_t il;
  let trip = il.Ir.Program.trip env_t in
  for j = 0 to trip - 1 do
    List.iter (Work.exec work (Ir.Env.with_inner env_t j)) il.Ir.Program.body
  done;
  trip

let run_seq ?(work = Work.Off) (p : Ir.Program.t) env =
  let tasks = ref 0 in
  let wall_ns =
    Nrun.timed (fun () ->
        for t = 0 to p.Ir.Program.outer_trip - 1 do
          let env_t = Ir.Env.with_outer env t in
          List.iter
            (fun il -> tasks := !tasks + run_invocation_seq work env_t il)
            p.Ir.Program.inners
        done)
  in
  Nrun.make ~technique:"native-sequential" ~domains:1 ~workers:1 ~wall_ns
    ~tasks:!tasks ~invocations:(Ir.Program.invocations p) ()

type share = {
  work : Work.t;
  grain : int;
  threads : int;
  locks : Mutex.t array;  (* the DOANY lock stripe *)
  total_words : int;
  bodies : Ir.Program.inner -> Ir.Footprint.touch array;
}

let share ~work ~grain ~threads p env =
  let mem = env.Ir.Env.mem in
  { work; grain; threads; locks = Array.init 64 (fun _ -> Mutex.create ());
    total_words = Ir.Memory.total_words mem; bodies = Ir.Footprint.bodies mem p }

let exec_iteration sh tech ~tid env_j (il : Ir.Program.inner) =
  match (tech : Intra.technique) with
  | Intra.Doall | Intra.Spec_doall ->
      List.iter (Work.exec sh.work env_j) il.Ir.Program.body
  | Intra.Doany ->
      Array.iter
        (fun (t : Ir.Footprint.touch) ->
          let s = t.Ir.Footprint.stmt in
          match Intra.stripe ~nlocks:(Array.length sh.locks) ~total_words:sh.total_words env_j t with
          | Some k ->
              Mutex.lock sh.locks.(k);
              Fun.protect ~finally:(fun () -> Mutex.unlock sh.locks.(k)) (fun () ->
                  Work.exec sh.work env_j s)
          | None -> Work.exec sh.work env_j s)
        (sh.bodies il)
  | Intra.Localwrite ->
      let threads = sh.threads and body = sh.bodies il in
      let executor = Intra.executor ~threads env_j body in
      Array.iter
        (fun (t : Ir.Footprint.touch) ->
          let s = t.Ir.Footprint.stmt in
          if Array.length t.Ir.Footprint.writes = 0 then begin
            (* Redundant traversal on every thread; semantics once. *)
            Work.burn sh.work (s.Ir.Stmt.cost env_j);
            if tid = executor then s.Ir.Stmt.exec env_j
          end
          else if Intra.owns ~threads ~tid env_j t then Work.exec sh.work env_j s)
        body

let run_share sh ~tid tech env_t (il : Ir.Program.inner) =
  let trip = il.Ir.Program.trip env_t in
  if Intra.visits_all_iterations tech then
    for j = 0 to trip - 1 do
      exec_iteration sh tech ~tid (Ir.Env.with_inner env_t j) il
    done
  else begin
    (* Block-cyclic: thread [tid] owns blocks of [grain] consecutive
       iterations, [threads * grain] apart — grain 1 is the classic cyclic
       distribution, larger grains trade balance for locality
       (taskloop-style chunking). *)
    let base = ref (tid * sh.grain) in
    while !base < trip do
      let stop = Stdlib.min trip (!base + sh.grain) in
      for j = !base to stop - 1 do
        exec_iteration sh tech ~tid (Ir.Env.with_inner env_t j) il
      done;
      base := !base + (sh.threads * sh.grain)
    done
  end

let run ~pool ?wd ?fault ?fr ?(work = Work.Off) ?(grain = 1) ~threads ~plan
    (p : Ir.Program.t) env =
  assert (threads > 0);
  (* Flight ring mapping: thread tid -> ring tid. *)
  let ev k ~domain ~a ~b =
    match fr with Some f -> Obs.Flight.record f ~domain k ~a ~b | None -> ()
  in
  if grain <= 0 then invalid_arg "Nbarrier.run: grain must be positive";
  if threads - 1 > Pool.workers pool then
    invalid_arg "Nbarrier.run: pool too small for the requested thread count";
  let wd = match wd with Some w -> w | None -> Watchdog.unbounded () in
  let stat = Stallcat.create () in
  let bar = Nbar.create ~parties:threads in
  let sh = share ~work ~grain ~threads p env in
  let tasks = ref 0 and invocations = ref 0 in
  let ninners = List.length p.Ir.Program.inners in
  let invocation site =
    (Ir.Env.with_outer env (site / ninners), List.nth p.Ir.Program.inners (site mod ninners))
  in
  let sites = p.Ir.Program.outer_trip * ninners in
  (* Invocation [site]'s sequential region: the caller runs the first one;
     the last thread to reach the barrier that ends invocation [site - 1]
     runs the next before it releases the others. *)
  let pre site =
    if site < sites then
      let env_t, il = invocation site in
      exec_pre work env_t il
  in
  let worker tid () =
    let role = Printf.sprintf "worker %d" tid in
    for site = 0 to sites - 1 do
      let env_t, il = invocation site in
      Fault.inject fault Fault.Worker_raise ~domain:tid ~site;
      if Fault.fires fault Fault.Poison_cond ~domain:tid ~site then
        Watchdog.park wd ~role;
      if tid = 0 then begin
        let trip = il.Ir.Program.trip env_t in
        incr invocations;
        tasks := !tasks + trip;
        ev Obs.Flight.Dispatch ~domain:0 ~a:site ~b:trip
      end;
      run_share sh ~tid (plan il.Ir.Program.ilabel) env_t il;
      ev Obs.Flight.Barrier_arrive ~domain:tid ~a:site ~b:0;
      Stallcat.timed ?fr ~domain:tid stat Stallcat.Barrier_wait (fun () ->
          Nbar.wait ~wd ~role ~serial:(fun () -> pre (site + 1)) bar);
      ev Obs.Flight.Barrier_release ~domain:tid ~a:site ~b:0;
      if tid = 0 then ev Obs.Flight.Epoch_commit ~domain:0 ~a:site ~b:0
    done
  in
  let wall_ns =
    Nrun.timed (fun () ->
        pre 0;
        Pool.run ~wd pool (Array.init threads worker))
  in
  let tech0 = plan (List.hd p.Ir.Program.inners).Ir.Program.ilabel in
  Nrun.make
    ~technique:(Printf.sprintf "native-%s+barrier" (Intra.name tech0))
    ~domains:threads ~workers:threads ~wall_ns ~tasks:!tasks
    ~invocations:!invocations ~barrier_episodes:(Nbar.waits bar)
    ~stalls:(Stallcat.to_list stat) ()
