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
  let serial = serialized_sids p in
  let comm = machine.Sim.Machine.queue_produce +. machine.Sim.Machine.queue_consume in
  let cell_of = Barrier_exec.commit_cells p in
  let share ({ Barrier_exec.tid; inner = il; env = env_t; trip; work_factor = wf; _ } as inv) =
    let cell = cell_of inv in
    let serial_sids = List.assoc il.Ir.Program.ilabel serial in
    let exec_part env_j ~serialized =
      List.iter
        (fun (s : Ir.Stmt.t) ->
          if List.mem s.Ir.Stmt.sid serial_sids = serialized then begin
            Sim.Proc.work ~label:s.Ir.Stmt.name (wf *. s.Ir.Stmt.cost env_j);
            s.Ir.Stmt.exec env_j
          end)
        il.Ir.Program.body
    in
    let j = ref tid in
    while !j < trip do
      let env_j = Ir.Env.with_inner env_t !j in
      (* Parallel portion first. *)
      exec_part env_j ~serialized:false;
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
        exec_part env_j ~serialized:true;
        Sim.Mono_cell.set cell !j
      end;
      j := !j + threads
    done
  in
  Barrier_exec.region ~machine ?obs ~threads ~track:"doacross"
    ~technique:"DOACROSS+barrier" p env share
