module Sim = Xinv_sim
module Ir = Xinv_ir

let stages_of_inner (pdg : Ir.Pdg.t) ii (il : Ir.Program.inner) =
  let body = il.Ir.Program.body in
  let sids = Array.of_list (List.map (fun s -> s.Ir.Stmt.sid) body) in
  let idx_of = Hashtbl.create 8 in
  Array.iteri (fun i sid -> Hashtbl.replace idx_of sid i) sids;
  let n = Array.length sids in
  let adj = Array.make n [] in
  List.iter
    (fun (e : Ir.Pdg.edge) ->
      match (Hashtbl.find_opt idx_of e.Ir.Pdg.src, Hashtbl.find_opt idx_of e.Ir.Pdg.dst) with
      | Some i, Some j
        when (Ir.Pdg.loc_of pdg e.Ir.Pdg.src).Ir.Pdg.inner_idx = ii
             && (Ir.Pdg.loc_of pdg e.Ir.Pdg.dst).Ir.Pdg.inner_idx = ii
             && i <> j ->
          if not (List.mem j adj.(i)) then adj.(i) <- j :: adj.(i)
      | _ -> ())
    pdg.Ir.Pdg.edges;
  let comps = Ir.Scc.topological { Ir.Scc.nodes = n; succs = (fun i -> adj.(i)) } in
  List.map (fun comp -> List.map (fun i -> sids.(i)) comp) comps

let stages (p : Ir.Program.t) =
  let pdg = Ir.Pdg.build p in
  List.mapi
    (fun ii (il : Ir.Program.inner) ->
      (il.Ir.Program.ilabel, stages_of_inner pdg ii il))
    p.Ir.Program.inners

let merge_stages ~max_stages groups =
  let n = List.length groups in
  if n <= max_stages then groups
  else begin
    let keep = max_stages - 1 in
    let rec split i = function
      | [] -> ([], [])
      | g :: rest ->
          if i < keep then
            let front, back = split (i + 1) rest in
            (g :: front, back)
          else ([], g :: rest)
    in
    let front, back = split 0 groups in
    front @ [ List.concat back ]
  end

let run ?(machine = Sim.Machine.default) ?obs ~threads (p : Ir.Program.t) env =
  let all_stages = stages p in
  (* Queues between consecutive stages, shared across invocations: the token
     is the iteration number. *)
  let queues =
    Array.init threads (fun _ ->
        Sim.Channel.create ~produce_cost:machine.Sim.Machine.queue_produce
          ~consume_cost:machine.Sim.Machine.queue_consume ())
  in
  let share { Barrier_exec.tid; inner = il; env = env_t; trip; work_factor = wf; _ } =
    let groups =
      merge_stages ~max_stages:threads (List.assoc il.Ir.Program.ilabel all_stages)
    in
    let nstages = List.length groups in
    if tid < nstages then begin
      let my_sids = List.nth groups tid in
      for j = 0 to trip - 1 do
        if tid > 0 then begin
          match obs with
          | None -> ignore (Sim.Channel.consume queues.(tid))
          | Some o ->
              let module Obs = Xinv_obs in
              let t0 = Sim.Proc.now () in
              ignore (Sim.Channel.consume queues.(tid));
              let dur = Sim.Proc.now () -. t0 -. machine.Sim.Machine.queue_consume in
              Obs.Recorder.stall o ~at:(Sim.Proc.now ()) ~domain:tid Obs.Cause.Queue_empty
                dur
        end;
        let env_j = Ir.Env.with_inner env_t j in
        List.iter
          (fun (s : Ir.Stmt.t) ->
            if List.mem s.Ir.Stmt.sid my_sids then begin
              Sim.Proc.work ~label:s.Ir.Stmt.name (wf *. s.Ir.Stmt.cost env_j);
              s.Ir.Stmt.exec env_j
            end)
          il.Ir.Program.body;
        if tid < nstages - 1 then Sim.Channel.produce queues.(tid + 1) j
      done
    end
  in
  Barrier_exec.region ~machine ?obs ~threads ~track:"dswp" ~technique:"DSWP+barrier" p env
    share
