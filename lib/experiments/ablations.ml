module Ir = Xinv_ir
module Sim = Xinv_sim
module Par = Xinv_parallel
module Wl = Xinv_workloads
module Cx = Xinv_core.Crossinv

let signatures () =
  let kinds =
    [
      ("plain range", `Range);
      ("per-array range", `Segmented);
      ("Bloom 4096/3", `Bloom);
      ("exact set", `Exact);
    ]
  in
  let benches = [ "JACOBI"; "FDTD"; "SYMM" ] in
  let rows =
    List.map
      (fun name ->
        let wl = Wl.Registry.find name in
        name
        :: List.concat_map
             (fun (_, sig_kind) ->
               let o =
                 Common.speedup_at ~input:(Common.spec_input wl) ~sig_kind wl
                   Cx.Speccross 16
               in
               [
                 Xinv_util.Tab.fmt_speedup o.Cx.speedup;
                 string_of_int (Option.get o.Cx.run).Par.Run.misspecs;
               ])
             kinds)
      benches
  in
  let header =
    "benchmark"
    :: List.concat_map (fun (n, _) -> [ n; "missp." ]) kinds
  in
  "Ablation: access-signature scheme at 16 threads.  A signature may only\n\
   over-approximate, so coarse schemes stay correct but misspeculate on\n\
   false positives; the per-array range scheme (the paper's \"range of\n\
   array indices\") is as clean as the exact oracle at a fraction of the\n\
   cost.\n\n"
  ^ Xinv_util.Tab.render ~header rows

let policies () =
  let benches = [ "CG"; "BLACKSCHOLES"; "ECLAT"; "LLUBENCH" ] in
  let pols =
    [
      ("round-robin", Xinv_domore.Policy.Round_robin);
      ("mem-partition", Xinv_domore.Policy.Mem_partition);
      ("least-loaded", Xinv_domore.Policy.Least_loaded);
    ]
  in
  let rows =
    List.map
      (fun name ->
        let wl = Wl.Registry.find name in
        let program = wl.Wl.Workload.program Wl.Workload.Ref in
        let seq_env = wl.Wl.Workload.fresh_env Wl.Workload.Ref in
        let seq_cost = Ir.Seq_interp.run program seq_env in
        let req = Cx.Request.make ~technique:Cx.Domore ~threads:24 wl in
        name
        :: List.map
             (fun (_, policy) ->
               let env = wl.Wl.Workload.fresh_env Wl.Workload.Ref in
               match Cx.resolve req env with
               | Cx.Engine.Domore (plan, config) ->
                   let config = { config with Xinv_domore.Domore.policy } in
                   let r = Xinv_domore.Domore.run ~config ~plan program env in
                   assert (Ir.Memory.equal seq_env.Ir.Env.mem env.Ir.Env.mem);
                   Xinv_util.Tab.fmt_speedup (Par.Run.speedup ~seq_cost r)
               | _ -> assert false
               | exception Failure _ -> "-")
             pols)
      benches
  in
  "Ablation: DOMORE iteration-scheduling policy at 24 threads (23 workers).\n\
   Memory partitioning turns repeated same-location conflicts into\n\
   same-worker ordering; least-loaded fixes imbalance but pays\n\
   synchronization on every conflict.\n\n"
  ^ Xinv_util.Tab.render ~header:("benchmark" :: List.map fst pols) rows

let contention () =
  let levels = [ 0.0; 0.011; 0.022; 0.044 ] in
  let cell technique input wl alpha =
    let machine = { Sim.Machine.default with Sim.Machine.contention = alpha } in
    (Cx.run_request @@ Cx.Request.make ~backend:(`Sim (Some machine)) ~input ~technique ~threads:24 wl)
      .Cx.speedup
  in
  let rows =
    [
      ( "CG / DOMORE",
        fun a -> cell Cx.Domore Wl.Workload.Ref (Wl.Registry.find "CG") a );
      ( "JACOBI / SPECCROSS",
        fun a -> cell Cx.Speccross Wl.Workload.Ref (Wl.Registry.find "JACOBI") a );
      ( "JACOBI / barrier",
        fun a -> cell Cx.Barrier Wl.Workload.Ref (Wl.Registry.find "JACOBI") a );
    ]
  in
  let table =
    List.map
      (fun (name, f) ->
        name :: List.map (fun a -> Xinv_util.Tab.fmt_speedup (f a)) levels)
      rows
  in
  "Ablation: memory-contention factor of the machine model (per-thread\n\
   slowdown of useful work; the default 0.022 approximates the 4-socket\n\
   FSB Xeon).  Orderings are stable across the sweep; only magnitudes move.\n\n"
  ^ Xinv_util.Tab.render
      ~header:("configuration" :: List.map (fun a -> Printf.sprintf "a=%.3f" a) levels)
      table

let inspector () =
  let benches = [ "CG"; "LLUBENCH"; "BLACKSCHOLES"; "ECLAT" ] in
  let rows =
    List.map
      (fun name ->
        let wl = Wl.Registry.find name in
        let s technique =
          match Cx.applicable technique wl with
          | Error _ -> "-"
          | Ok () ->
              Xinv_util.Tab.fmt_speedup
                (Cx.run_request @@ Cx.Request.make ~technique ~threads:24 wl).Cx.speedup
        in
        [ name; s Cx.Barrier; s Cx.Inspector; s Cx.Domore ])
      benches
  in
  "Ablation: inspector-executor vs DOMORE at 24 threads.  Both discover the\n\
   same dynamic dependences from the same computeAddr slice, but IE\n\
   serializes inspection with execution and still synchronizes every\n\
   invocation boundary; DOMORE pipelines the inspection and crosses the\n\
   boundary.\n\n"
  ^ Xinv_util.Tab.render
      ~header:[ "benchmark"; "pthread barrier"; "inspector-executor"; "DOMORE" ]
      rows
