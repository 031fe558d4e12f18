module Sim = Xinv_sim
module Ir = Xinv_ir

(* Topological wavefront per iteration: a read depends on the last write of
   the address, a write on the last write and on every read since it. *)
let wavefronts ~reads ~writes env ~trip =
  let last_write : (int, int) Hashtbl.t = Hashtbl.create 256 in
  let max_read : (int, int) Hashtbl.t = Hashtbl.create 256 in
  let wave = Array.make trip 0 in
  let get tbl addr = match Hashtbl.find_opt tbl addr with Some w -> w | None -> -1 in
  for j = 0 to trip - 1 do
    let env_j = Ir.Env.with_inner env j in
    let raddrs = Array.map (Ir.Footprint.addr env_j) reads in
    let waddrs = Array.map (Ir.Footprint.addr env_j) writes in
    let req = ref (-1) in
    Array.iter (fun a -> req := Stdlib.max !req (get last_write a)) raddrs;
    Array.iter
      (fun a ->
        req := Stdlib.max !req (get last_write a);
        req := Stdlib.max !req (get max_read a))
      waddrs;
    wave.(j) <- !req + 1;
    Array.iter
      (fun a -> Hashtbl.replace max_read a (Stdlib.max (get max_read a) wave.(j)))
      raddrs;
    Array.iter
      (fun a ->
        Hashtbl.replace last_write a wave.(j);
        Hashtbl.remove max_read a)
      waddrs
  done;
  wave

let run ?(machine = Sim.Machine.default) ?obs ~threads ~(plan : Ir.Mtcg.plan)
    (p : Ir.Program.t) env =
  (* The inspection result for the current invocation, published by thread 0
     before the wavefront barrier releases the others. *)
  let current = ref [||] in
  let sites = Ir.Mtcg.sites_for plan env.Ir.Env.mem in
  let share { Barrier_exec.tid; inner = il; env = env_t; trip; work_factor = wf; sync; _ } =
    (* Inspection phase: serialized on thread 0 while the others wait at
       the barrier. *)
    if tid = 0 then begin
      let slice = Ir.Mtcg.slice_for plan il.Ir.Program.ilabel in
      Sim.Proc.advance ~label:"inspect" Sim.Category.Runtime
        ((Ir.Slice.cost_per_iter slice +. machine.Sim.Machine.shadow_per_addr)
        *. float_of_int trip);
      let reads, writes = sites il.Ir.Program.ilabel in
      current := wavefronts ~reads ~writes env_t ~trip
    end;
    (* An empty invocation has no wavefront: the barrier ending it is the
       only one. *)
    if trip > 0 then begin
      sync ();
      let wave = !current in
      let nwaves = Array.fold_left (fun acc w -> Stdlib.max acc (w + 1)) 0 wave in
      for w = 0 to nwaves - 1 do
        (* Iterations of one wavefront, distributed cyclically; a barrier
           separates wavefronts, and the last one ends the invocation. *)
        let k = ref 0 in
        for j = 0 to trip - 1 do
          if wave.(j) = w then begin
            if !k mod threads = tid then begin
              let env_j = Ir.Env.with_inner env_t j in
              List.iter
                (fun (s : Ir.Stmt.t) ->
                  Sim.Proc.work ~label:s.Ir.Stmt.name (wf *. s.Ir.Stmt.cost env_j);
                  s.Ir.Stmt.exec env_j)
                il.Ir.Program.body
            end;
            incr k
          end
        done;
        if w < nwaves - 1 then sync ()
      done
    end
  in
  Barrier_exec.region ~machine ?obs ~threads ~track:"ie" ~technique:"Inspector-Executor" p env
    share
