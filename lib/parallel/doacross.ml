module Sim = Xinv_sim
module Ir = Xinv_ir

(* Statement ids of each inner loop that participate in a cross-iteration
   dependence cycle: these form the serialized portion. *)
let serialized_sids (p : Ir.Program.t) =
  let pdg = Ir.Pdg.build p in
  List.mapi
    (fun ii (il : Ir.Program.inner) ->
      let sids =
        List.filter_map
          (fun (s : Ir.Stmt.t) ->
            let sid = s.Ir.Stmt.sid in
            let in_cycle =
              List.exists
                (fun (a, b) ->
                  (a = sid || b = sid)
                  && (Ir.Pdg.loc_of pdg a).Ir.Pdg.inner_idx = ii
                  && (Ir.Pdg.loc_of pdg b).Ir.Pdg.inner_idx = ii)
                (Ir.Pdg.cross_iter_pairs pdg)
            in
            if in_cycle then Some sid else None)
          il.Ir.Program.body
      in
      (il.Ir.Program.ilabel, sids))
    p.Ir.Program.inners

let run ?(machine = Sim.Machine.default) ?obs ~threads (p : Ir.Program.t) env =
  assert (threads > 0);
  let eng = Sim.Engine.create () in
  let bar = Sim.Barrier.create ~parties:threads in
  let serial = serialized_sids p in
  let barrier_cost =
    machine.Sim.Machine.barrier_base
    +. (machine.Sim.Machine.barrier_per_thread *. float_of_int threads)
  in
  let comm = machine.Sim.Machine.queue_produce +. machine.Sim.Machine.queue_consume in
  let tasks = ref 0 and invocations = ref 0 in
  (* One progress cell per invocation occurrence, allocated up front. *)
  let cells = Hashtbl.create 64 in
  let ninners = List.length p.Ir.Program.inners in
  for t = 0 to p.Ir.Program.outer_trip - 1 do
    for ii = 0 to ninners - 1 do
      Hashtbl.replace cells (t, ii) (Sim.Mono_cell.create ~init:(-1) ())
    done
  done;
  let worker tid () =
    for t = 0 to p.Ir.Program.outer_trip - 1 do
      let env_t = Ir.Env.with_outer env t in
      List.iteri
        (fun ii (il : Ir.Program.inner) ->
          if tid = 0 then begin
            List.iter (fun (s : Ir.Stmt.t) -> s.Ir.Stmt.exec env_t) il.Ir.Program.pre;
            incr invocations
          end;
          List.iter
            (fun (s : Ir.Stmt.t) ->
              let cat =
                if tid = 0 then Sim.Category.Sequential else Sim.Category.Redundant
              in
              Sim.Proc.advance ~label:s.Ir.Stmt.name cat (s.Ir.Stmt.cost env_t))
            il.Ir.Program.pre;
          let cell = Hashtbl.find cells (t, ii) in
          let serial_sids = List.assoc il.Ir.Program.ilabel serial in
          let trip = il.Ir.Program.trip env_t in
          if tid = 0 then tasks := !tasks + trip;
          let j = ref tid in
          while !j < trip do
            let env_j = Ir.Env.with_inner env_t !j in
            (* Parallel portion first. *)
            List.iter
              (fun (s : Ir.Stmt.t) ->
                if not (List.mem s.Ir.Stmt.sid serial_sids) then begin
                  Sim.Proc.work ~label:s.Ir.Stmt.name
                    (Sim.Machine.work_factor machine ~threads *. s.Ir.Stmt.cost env_j);
                  s.Ir.Stmt.exec env_j
                end)
              il.Ir.Program.body;
            (* Serialized portion in strict iteration order. *)
            if serial_sids <> [] then begin
              (match obs with
              | None -> Sim.Mono_cell.wait_ge cell (!j - 1)
              | Some o ->
                  let module Obs = Xinv_obs in
                  let t0 = Sim.Proc.now () in
                  Sim.Mono_cell.wait_ge cell (!j - 1);
                  Obs.Recorder.stall o ~at:(Sim.Proc.now ()) ~domain:tid
                    Obs.Cause.Sync_cond (Sim.Proc.now () -. t0));
              Sim.Proc.advance ~label:"recv" Sim.Category.Queue comm;
              List.iter
                (fun (s : Ir.Stmt.t) ->
                  if List.mem s.Ir.Stmt.sid serial_sids then begin
                    Sim.Proc.work ~label:s.Ir.Stmt.name
                    (Sim.Machine.work_factor machine ~threads *. s.Ir.Stmt.cost env_j);
                    s.Ir.Stmt.exec env_j
                  end)
                il.Ir.Program.body;
              Sim.Mono_cell.set cell !j
            end;
            j := !j + threads
          done;
          Sim.Barrier.wait ~cost:barrier_cost bar;
          match obs with
          | None -> ()
          | Some o ->
              let module Obs = Xinv_obs in
              Obs.Recorder.emit o ~at:(Sim.Proc.now ()) ~domain:tid
                Obs.Flight.Barrier_release ~a:(Sim.Barrier.waits bar) ~b:0)
        p.Ir.Program.inners
    done
  in
  for tid = 0 to threads - 1 do
    ignore (Sim.Engine.spawn eng ~name:(Printf.sprintf "doacross%d" tid) (worker tid))
  done;
  Sim.Engine.run eng;
  Run.make ~technique:"DOACROSS+barrier" ~threads ~makespan:(Sim.Engine.now eng)
    ~engine:eng ~tasks:!tasks ~invocations:!invocations
    ~barrier_episodes:(Sim.Barrier.waits bar) ?recorder:obs ()
