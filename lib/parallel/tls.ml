module Sim = Xinv_sim
module Ir = Xinv_ir

let run ?(machine = Sim.Machine.default) ?obs ~threads ~(plan : Ir.Mtcg.plan)
    (p : Ir.Program.t) env =
  let squashes = ref 0 in
  (* Per-invocation commit token, and the per-address last committed writer
     that thread 0 clears when an invocation starts. *)
  let cell_of = Barrier_exec.commit_cells p in
  let last_writer : (int, int) Hashtbl.t = Hashtbl.create 4096 in
  let sites = Ir.Mtcg.sites_for plan env.Ir.Env.mem in
  let share ({ Barrier_exec.tid; inner = il; env = env_t; trip; work_factor = wf; _ } as inv) =
    (* Nobody reads [last_writer] before iteration 0, run by thread 0,
       commits. *)
    if tid = 0 then Hashtbl.reset last_writer;
    let reads, writes = sites il.Ir.Program.ilabel in
    let cell = cell_of inv in
    let j = ref tid in
    while !j < trip do
      let env_j = Ir.Env.with_inner env_t !j in
      let speculative_cost () =
        List.fold_left
          (fun acc (s : Ir.Stmt.t) -> acc +. (wf *. s.Ir.Stmt.cost env_j))
          0. il.Ir.Program.body
      in
      (* Speculative execution: pay the work and the validation
         bookkeeping; remember which commits were visible at start. *)
      let start_commit = Sim.Mono_cell.get cell in
      let raddrs = Array.map (Ir.Footprint.addr env_j) reads in
      let waddrs = Array.map (Ir.Footprint.addr env_j) writes in
      Sim.Proc.advance ~label:"track" Sim.Category.Runtime
        (machine.Sim.Machine.sig_per_access
        *. float_of_int (Array.length raddrs + Array.length waddrs));
      Sim.Proc.work ~label:"spec-work" (speculative_cost ());
      (* In-order commit. *)
      Sim.Mono_cell.wait_ge ~cat:Sim.Category.Sync_wait cell (!j - 1);
      let dirty addr =
        match Hashtbl.find_opt last_writer addr with
        | Some w -> w > start_commit && w < !j
        | None -> false
      in
      if Array.exists dirty raddrs || Array.exists dirty waddrs then begin
        (* Violation: squash and re-execute against committed state. *)
        incr squashes;
        Sim.Proc.work ~label:"re-exec" (speculative_cost ())
      end;
      (* Commit: apply semantics in order. *)
      List.iter (fun (s : Ir.Stmt.t) -> s.Ir.Stmt.exec env_j) il.Ir.Program.body;
      Array.iter (fun a -> Hashtbl.replace last_writer a !j) waddrs;
      Sim.Proc.advance ~label:"commit" Sim.Category.Runtime 12.;
      Sim.Mono_cell.set cell !j;
      j := !j + threads
    done
    (* Laggards that own no iteration still release the commit chain at
       the barrier that ends the invocation. *)
  in
  let run =
    Barrier_exec.region ~machine ?obs ~threads ~track:"tls" ~technique:"TLS+barrier" p env
      share
  in
  { run with Run.misspecs = !squashes }
