module Ir = Xinv_ir
module Par = Xinv_parallel
module Obs = Xinv_obs

let run_seq ?(work = Work.Off) (p : Ir.Program.t) env =
  let tasks = ref 0 in
  let wall_ns =
    Nrun.timed (fun () ->
        for t = 0 to p.Ir.Program.outer_trip - 1 do
          let env_t = Ir.Env.with_outer env t in
          List.iter
            (fun (il : Ir.Program.inner) ->
              List.iter
                (fun (s : Ir.Stmt.t) ->
                  Work.burn work (s.Ir.Stmt.cost env_t);
                  s.Ir.Stmt.exec env_t)
                il.Ir.Program.pre;
              let trip = il.Ir.Program.trip env_t in
              tasks := !tasks + trip;
              for j = 0 to trip - 1 do
                let env_j = Ir.Env.with_inner env_t j in
                List.iter
                  (fun (s : Ir.Stmt.t) ->
                    Work.burn work (s.Ir.Stmt.cost env_j);
                    s.Ir.Stmt.exec env_j)
                  il.Ir.Program.body
              done)
            p.Ir.Program.inners
        done)
  in
  Nrun.make ~technique:"native-sequential" ~domains:1 ~workers:1 ~wall_ns
    ~tasks:!tasks ~invocations:(Ir.Program.invocations p) ()

(* Owner of a write access: the same index-range partition the simulator's
   LOCALWRITE uses ({!Xinv_parallel.Intra.owner}). *)
let owner_of env ~threads (a : Ir.Access.t) =
  let mem = env.Ir.Env.mem in
  let idx = Ir.Expr.eval env a.Ir.Access.index in
  let size = Ir.Memory.size mem a.Ir.Access.base in
  idx * threads / size

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
  let nlocks = 64 in
  let locks = Array.init nlocks (fun _ -> Mutex.create ()) in
  let total_words = Ir.Memory.total_words env.Ir.Env.mem in
  let lock_of env_j (a : Ir.Access.t) =
    let addr = Ir.Access.addr env_j env_j.Ir.Env.mem a in
    locks.(addr * nlocks / Stdlib.max 1 total_words)
  in
  let tasks = ref 0 and invocations = ref 0 in
  let exec_stmt env_j (s : Ir.Stmt.t) =
    Work.burn work (s.Ir.Stmt.cost env_j);
    s.Ir.Stmt.exec env_j
  in
  let exec_iteration tech tid env_j (il : Ir.Program.inner) =
    match (tech : Par.Intra.technique) with
    | Par.Intra.Doall | Par.Intra.Spec_doall ->
        List.iter (exec_stmt env_j) il.Ir.Program.body
    | Par.Intra.Doany ->
        List.iter
          (fun (s : Ir.Stmt.t) ->
            if s.Ir.Stmt.commutes && s.Ir.Stmt.writes <> [] then begin
              let m = lock_of env_j (List.hd s.Ir.Stmt.writes) in
              Mutex.lock m;
              Fun.protect ~finally:(fun () -> Mutex.unlock m) (fun () ->
                  exec_stmt env_j s)
            end
            else exec_stmt env_j s)
          il.Ir.Program.body
    | Par.Intra.Localwrite ->
        let body = il.Ir.Program.body in
        let owners_of (s : Ir.Stmt.t) =
          List.sort_uniq compare (List.map (owner_of env_j ~threads) s.Ir.Stmt.writes)
        in
        let all_owners = List.concat_map owners_of body |> List.sort_uniq compare in
        let executor = match all_owners with o :: _ -> o | [] -> 0 in
        List.iter
          (fun (s : Ir.Stmt.t) ->
            if s.Ir.Stmt.writes = [] then begin
              (* Redundant traversal on every thread; semantics once. *)
              Work.burn work (s.Ir.Stmt.cost env_j);
              if tid = executor then s.Ir.Stmt.exec env_j
            end
            else if List.mem tid (owners_of s) then exec_stmt env_j s)
          body
  in
  let ninners = List.length p.Ir.Program.inners in
  let worker tid () =
    let role = Printf.sprintf "worker %d" tid in
    let episode = ref 0 in
    let bwait () =
      ev Obs.Flight.Barrier_arrive ~domain:tid ~a:!episode ~b:0;
      Stallcat.timed ?fr ~domain:tid stat Stallcat.Barrier_wait (fun () ->
          Nbar.wait ~wd ~role bar);
      ev Obs.Flight.Barrier_release ~domain:tid ~a:!episode ~b:0;
      incr episode
    in
    for t = 0 to p.Ir.Program.outer_trip - 1 do
      let env_t = Ir.Env.with_outer env t in
      List.iteri
        (fun k (il : Ir.Program.inner) ->
          let site = (t * ninners) + k in
          let tech = plan il.Ir.Program.ilabel in
          if tid = 0 then
            List.iter
              (fun (s : Ir.Stmt.t) ->
                Work.burn work (s.Ir.Stmt.cost env_t);
                s.Ir.Stmt.exec env_t)
              il.Ir.Program.pre;
          (* Unlike the simulator, real workers race ahead: order the
             sequential region before any body iteration reads it. *)
          bwait ();
          Fault.inject fault Fault.Worker_raise ~domain:tid ~site;
          if Fault.fires fault Fault.Poison_cond ~domain:tid ~site then
            Watchdog.park wd ~role;
          let trip = il.Ir.Program.trip env_t in
          if tid = 0 then begin
            incr invocations;
            tasks := !tasks + trip;
            ev Obs.Flight.Dispatch ~domain:0 ~a:site ~b:trip
          end;
          if Par.Intra.visits_all_iterations tech then
            for j = 0 to trip - 1 do
              exec_iteration tech tid (Ir.Env.with_inner env_t j) il
            done
          else begin
            (* Block-cyclic: thread [tid] owns blocks of [grain] consecutive
               iterations, [threads * grain] apart — grain 1 is the classic
               cyclic distribution, larger grains trade balance for locality
               (taskloop-style chunking). *)
            let base = ref (tid * grain) in
            while !base < trip do
              let stop = Stdlib.min trip (!base + grain) in
              for j = !base to stop - 1 do
                exec_iteration tech tid (Ir.Env.with_inner env_t j) il
              done;
              base := !base + (threads * grain)
            done
          end;
          bwait ();
          if tid = 0 then ev Obs.Flight.Epoch_commit ~domain:0 ~a:site ~b:0)
        p.Ir.Program.inners
    done
  in
  let wall_ns =
    Nrun.timed (fun () -> Pool.run ~wd pool (Array.init threads worker))
  in
  let tech0 = plan (List.hd p.Ir.Program.inners).Ir.Program.ilabel in
  Nrun.make
    ~technique:(Printf.sprintf "native-%s+barrier" (Par.Intra.name tech0))
    ~domains:threads ~workers:threads ~wall_ns ~tasks:!tasks
    ~invocations:!invocations ~barrier_episodes:(Nbar.waits bar)
    ~stalls:(Stallcat.to_list stat) ()
