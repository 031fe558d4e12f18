(* A particle-system frame loop (the FLUIDANIMATE shape): several
   differently-shaped invocations per frame, including irregular
   scatter-updates onto neighbours.  Demonstrates composing within-epoch
   DOMORE scheduling with speculative barriers (Figure 5.6's winning
   configuration) against plain LOCALWRITE + barriers.

     dune exec examples/particle_system.exe
*)

module Ir = Xinv_ir
module Wl = Xinv_workloads
module Cx = Xinv_core.Crossinv
module Sp = Xinv_speccross
module Par = Xinv_parallel

let () =
  let wl = Wl.Registry.find "FLUIDANIMATE-2" in
  let program = wl.Wl.Workload.program Wl.Workload.Ref in
  Printf.printf "frame loop: %d invocations per frame, %d frames\n"
    (List.length program.Ir.Program.inners)
    program.Ir.Program.outer_trip;
  List.iter
    (fun (il : Ir.Program.inner) ->
      Printf.printf "  %-24s %s\n" il.Ir.Program.ilabel
        (Par.Intra.name (Wl.Workload.technique_of wl il.Ir.Program.ilabel)))
    program.Ir.Program.inners;
  print_newline ();

  (* Why classic DOMORE cannot run ahead here. *)
  (match Cx.applicable Cx.Domore wl with
  | Error reason -> Printf.printf "scheduler-thread DOMORE: %s\n\n" reason
  | Ok () -> ());

  (* Strategy shoot-out at 16 cores. *)
  let threads = 16 in
  let speedup technique =
    Option.get (Cx.run_request @@ Cx.Request.make ~technique ~threads wl).Cx.speedup
  in
  let baseline = speedup Cx.Barrier in
  Printf.printf "LOCALWRITE + barriers           : %5.2fx\n" baseline;
  let spec = speedup Cx.Speccross in
  Printf.printf "LOCALWRITE + speculative        : %5.2fx\n" spec;

  (* Within-epoch duplicated DOMORE + speculative barriers. *)
  let seq_env = wl.Wl.Workload.fresh_env Wl.Workload.Ref in
  let seq_cost = Ir.Seq_interp.run program seq_env in
  let env = wl.Wl.Workload.fresh_env Wl.Workload.Ref in
  let prof =
    Sp.Profiler.profile
      (wl.Wl.Workload.program Wl.Workload.Train)
      (wl.Wl.Workload.fresh_env Wl.Workload.Train)
  in
  let cfg =
    {
      (Sp.Runtime.default_config ~workers:(threads - 1)) with
      Sp.Runtime.sig_kind =
        Xinv_runtime.Signature.Segmented (Ir.Memory.bounds env.Ir.Env.mem);
      spec_distance = Stdlib.max (threads - 1) prof.Sp.Profiler.spec_distance;
      mode_of =
        (fun label ->
          match Wl.Workload.technique_of wl label with
          | Par.Intra.Localwrite ->
              Sp.Runtime.M_domore Xinv_domore.Policy.Mem_partition
          | _ -> Sp.Runtime.M_doall);
    }
  in
  let r = Sp.Runtime.run ~config:cfg program env in
  assert (Ir.Memory.equal seq_env.Ir.Env.mem env.Ir.Env.mem);
  Printf.printf "within-epoch DOMORE + speculative: %5.2fx (%d misspeculations)\n"
    (Par.Run.speedup ~seq_cost r)
    r.Par.Run.misspecs
