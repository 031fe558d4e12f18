module Ir = Xinv_ir
module Sim = Xinv_sim
module Par = Xinv_parallel
module Wl = Xinv_workloads
module Cx = Xinv_core.Crossinv
module E = Xinv_ir.Expr

(* ---------- Figure 1.4: execution plans with and without barriers ---------- *)

(* The Figure 1.3 program: L1 writes A from B, L2 writes B from A, repeated. *)
let fig13_program trip outer =
  let l1 =
    Ir.Stmt.make
      ~reads:[ Ir.Access.make "B" E.i; Ir.Access.make "B" E.(i + c 1) ]
      ~writes:[ Ir.Access.make "A" E.i ]
      ~cost:(fun env -> Xinv_workloads.Wl_util.jittered ~base:800. ~salt:201 env)
      ~exec:(fun env ->
        let mem = env.Ir.Env.mem in
        let j = env.Ir.Env.j_inner in
        Ir.Memory.set_float mem "A" j
          (Float.rem
             (Ir.Memory.get_float mem "B" j +. Ir.Memory.get_float mem "B" (j + 1) +. 1.)
             Xinv_workloads.Wl_util.modulus))
      "A[i]=f(B)"
  in
  let l2 =
    Ir.Stmt.make
      ~reads:[ Ir.Access.make "A" E.i; Ir.Access.make "A" E.(i + c 1) ]
      ~writes:[ Ir.Access.make "B" E.(i + c 1) ]
      ~cost:(fun env -> Xinv_workloads.Wl_util.jittered ~base:800. ~salt:202 env)
      ~exec:(fun env ->
        let mem = env.Ir.Env.mem in
        let j = env.Ir.Env.j_inner in
        Ir.Memory.set_float mem "B" (j + 1)
          (Float.rem
             (Ir.Memory.get_float mem "A" j +. Ir.Memory.get_float mem "A" (j + 1) +. 2.)
             Xinv_workloads.Wl_util.modulus))
      "B[j]=g(A)"
  in
  let fresh () =
    Ir.Env.make
      (Ir.Memory.create
         [
           Ir.Memory.Floats ("A", Array.init (trip + 1) float_of_int);
           Ir.Memory.Floats ("B", Array.init (trip + 2) float_of_int);
         ])
  in
  ( Ir.Program.make ~name:"fig1.3" ~outer_trip:outer
      [
        Ir.Program.inner ~label:"L1" ~trip:(Ir.Program.const_trip trip) [ l1 ];
        Ir.Program.inner ~label:"L2" ~trip:(Ir.Program.const_trip trip) [ l2 ];
      ],
    fresh )

let fig1_4 () =
  let p, fresh = fig13_program 8 2 in
  let barrier_run =
    Par.Barrier_exec.run ~trace:true ~threads:4
      ~plan:(fun _ -> Par.Intra.Doall)
      p (fresh ())
  in
  let spec_env = fresh () in
  let profile = Xinv_speccross.Profiler.profile p (fresh ()) in
  let cfg =
    {
      (Xinv_speccross.Runtime.default_config ~workers:4) with
      Xinv_speccross.Runtime.spec_distance = profile.Xinv_speccross.Profiler.spec_distance;
      sig_kind = Xinv_runtime.Signature.Segmented (Ir.Memory.bounds spec_env.Ir.Env.mem);
    }
  in
  let spec_run = Xinv_speccross.Runtime.run ~config:cfg ~trace:true p spec_env in
  String.concat "\n"
    [
      "Figure 1.4: parallel execution with barriers (left) and with speculative";
      "barriers removing the global synchronization (right).";
      "";
      "(a) pthread barriers:";
      Sim.Trace.render ~width:24 (Sim.Engine.segments barrier_run.Par.Run.engine);
      "";
      "(b) speculative barriers (SPECCROSS):";
      Sim.Trace.render ~width:24 (Sim.Engine.segments spec_run.Par.Run.engine);
      "";
      Printf.sprintf "makespan with barriers: %.0f cycles, without: %.0f cycles"
        barrier_run.Par.Run.makespan spec_run.Par.Run.makespan;
    ]

(* ---------- Figure 2.2: sensitivity to memory analysis ---------- *)

let fig2_2 () =
  let benches = [ "SYMM"; "JACOBI"; "FDTD" ] in
  let rows =
    List.map
      (fun name ->
        let wl = Wl.Registry.find name in
        let static_speedup = Common.speedup (Common.speedup_at wl Cx.Barrier 8) in
        (* Dynamically allocated arrays: every index goes through a pointer
           the compiler cannot analyze; the static planner no longer proves
           DOALL, so the loop stays sequential. *)
        let wrapped = Ir.Opaque.wrap (wl.Wl.Workload.program Wl.Workload.Ref) in
        let statically_doall =
          match Par.Plan.choose wrapped with
          | choices -> List.for_all (fun c -> c.Par.Plan.technique = Par.Intra.Doall) choices
          | exception Failure _ -> false
        in
        let dyn_speedup =
          if statically_doall then static_speedup else 1.0
        in
        (name, static_speedup, dyn_speedup))
      benches
  in
  let bars =
    List.concat_map
      (fun (n, s, d) ->
        [ (n ^ " (static arrays)", s); (n ^ " (dynamic arrays)", d) ])
      rows
  in
  "Figure 2.2: DOALL speedup at 8 threads when arrays are statically\n\
   declared vs reached through dynamically allocated pointers (static\n\
   dependence analysis fails, parallelization is suppressed).\n\n"
  ^ Xinv_util.Tab.render_bars bars

(* ---------- Figure 2.8: TLS vs DOACROSS/DSWP ---------- *)

(* The Figure 2.6 loop: every iteration may depend on every other through an
   opaque pointer, but at runtime the accesses are all distinct.  Static
   techniques serialize; TLS speculates and commits in order. *)
let fig2_8 () =
  let outer = 6 and trip = 48 in
  let total = outer * trip in
  let p, fresh0 =
    Wl.Synth.make
      { Wl.Synth.default with Wl.Synth.seed = 77; cells = total; outer; trip;
        inners = 1; base_cost = 2000. }
  in
  let fresh () =
    let env = fresh0 () in
    for i = 0 to total - 1 do
      Ir.Memory.set_int env.Ir.Env.mem "tgt" i i
    done;
    env
  in
  let seq_env = fresh () in
  let seq_cost = Ir.Seq_interp.run p seq_env in
  let threads = 4 in
  let speed name run =
    let env = fresh () in
    let r : Par.Run.t = run env in
    assert (Ir.Memory.equal seq_env.Ir.Env.mem env.Ir.Env.mem);
    (name, Par.Run.speedup ~seq_cost r)
  in
  let plan env =
    match Ir.Mtcg.generate p env with
    | Ir.Mtcg.Plan plan -> plan
    | Ir.Mtcg.Inapplicable r -> failwith r
  in
  let rows =
    [
      speed "DOACROSS" (fun env -> Par.Doacross.run ~threads p env);
      speed "DSWP" (fun env -> Par.Dswp.run ~threads p env);
      speed "TLS (speculative)" (fun env ->
          Par.Tls.run ~threads ~plan:(plan env) p env);
    ]
  in
  "Figure 2.8: a loop whose iterations may all depend on each other through
   an opaque pointer (Figure 2.6) at 4 threads.  Static techniques must
   serialize the dependence cycle; speculation breaks it and approaches the
   thread count.

"
  ^ Xinv_util.Tab.render_bars rows

(* ---------- Figure 4.4: TM-style checking vs SPECCROSS epochs ---------- *)

(* The SPECCROSS configuration [xinv run] would use, regardless of the §4.4
   profitability verdict: these experiments vary one knob of it. *)
let spec_config req env =
  match Cx.resolve req env with
  | Cx.Engine.Speccross { config; profile; _ } -> (config, profile)
  | _ -> assert false

let fig4_4 () =
  let threads = 16 in
  let rows =
    List.map
      (fun name ->
        let wl = Wl.Registry.find name in
        let input = Common.spec_input wl in
        let program = wl.Wl.Workload.program input in
        let seq_env = wl.Wl.Workload.fresh_env input in
        let seq_cost = Ir.Seq_interp.run program seq_env in
        let req = Cx.Request.make ~input ~technique:Cx.Speccross ~threads wl in
        let run tm =
          let env = wl.Wl.Workload.fresh_env input in
          let config, _ = spec_config req env in
          let config = { config with Xinv_speccross.Runtime.tm_style = tm } in
          let r = Xinv_speccross.Runtime.run ~config program env in
          assert (Ir.Memory.equal seq_env.Ir.Env.mem env.Ir.Env.mem);
          ( Par.Run.speedup ~seq_cost r,
            Sim.Engine.total r.Par.Run.engine Sim.Category.Checker )
        in
        let s_epoch, c_epoch = run false in
        let s_tm, c_tm = run true in
        [
          name;
          Xinv_util.Tab.fmt_speedup s_epoch;
          Xinv_util.Tab.fmt_speedup s_tm;
          Printf.sprintf "%.1fx" (c_tm /. Stdlib.max 1. c_epoch);
        ])
      [ "JACOBI"; "FDTD"; "SYMM"; "LLUBENCH" ]
  in
  "Figure 4.4: TM-style speculation compares a task against overlapping
   tasks of its own invocation too — comparisons the epoch/task rule proves
   unnecessary (16 threads).

"
  ^ Xinv_util.Tab.render
      ~header:[ "benchmark"; "SPECCROSS"; "TM-style"; "checker work ratio" ]
      rows

(* ---------- Figure 3.3 / 5.1: DOMORE vs pthread barrier ---------- *)

let domore_vs_barrier wl =
  [
    Common.sweep ~label:"Pthread Barrier" wl Cx.Barrier;
    Common.sweep ~label:"DOMORE" wl Cx.Domore;
  ]

let fig3_3 () =
  let wl = Wl.Registry.find "CG" in
  Common.render_series
    ~title:"Figure 3.3: CG loop speedup with and without DOMORE"
    (domore_vs_barrier wl)

let fig5_1 () =
  let blocks =
    List.map
      (fun (wl : Wl.Workload.t) ->
        Common.render_series
          ~title:(Printf.sprintf "(%s)" wl.Wl.Workload.name)
          (domore_vs_barrier wl))
      (Wl.Registry.domore_set ())
  in
  "Figure 5.1: loop speedup, pthread-barrier parallelization vs DOMORE\n\n"
  ^ String.concat "\n\n" blocks

(* ---------- Figure 4.3: barrier overhead ---------- *)

let fig4_3 () =
  let rows =
    List.map
      (fun (wl : Wl.Workload.t) ->
        let input = Common.spec_input wl in
        let pct n =
          let o = Common.speedup_at ~input wl Cx.Barrier n in
          match o.Cx.run with
          | Some r -> Par.Run.barrier_overhead_pct r
          | None -> 0.
        in
        [
          wl.Wl.Workload.name;
          Xinv_util.Tab.fmt_f (pct 8) ^ "%";
          Xinv_util.Tab.fmt_f (pct 24) ^ "%";
        ])
      (Wl.Registry.speccross_set ())
  in
  "Figure 4.3: share of all cores' time spent at barriers\n\n"
  ^ Xinv_util.Tab.render ~header:[ "benchmark"; "8 threads"; "24 threads" ] rows

(* ---------- Figure 5.2: SPECCROSS vs pthread barrier ---------- *)

let fig5_2 () =
  let blocks =
    List.map
      (fun (wl : Wl.Workload.t) ->
        let input = Common.spec_input wl in
        Common.render_series
          ~title:(Printf.sprintf "(%s)" wl.Wl.Workload.name)
          [
            Common.sweep ~input ~label:"Pthread Barrier" wl Cx.Barrier;
            Common.sweep ~input ~label:"SpecCross" wl Cx.Speccross;
          ])
      (Wl.Registry.speccross_set ())
  in
  "Figure 5.2: loop speedup, pthread-barrier parallelization vs SPECCROSS\n\n"
  ^ String.concat "\n\n" blocks

(* ---------- Figure 5.3: checkpointing frequency sweep ---------- *)

let fig5_3 () =
  let counts = [ 2; 5; 10; 25; 50; 100 ] in
  let set = Wl.Registry.speccross_set () in
  let geo f =
    Xinv_util.Stats.geomean
      (List.filter_map
         (fun (wl : Wl.Workload.t) ->
           match f wl with s when s > 0. -> Some s | _ -> None
           | exception Failure _ -> None)
         set)
  in
  let rows =
    List.map
      (fun count ->
        let at misspec (wl : Wl.Workload.t) =
          let input = Common.spec_input wl in
          let nepochs = Ir.Program.invocations (wl.Wl.Workload.program input) in
          let every = Stdlib.max 1 (nepochs / count) in
          let technique =
            if misspec then Cx.Speccross_inject (nepochs / 2) else Cx.Speccross
          in
          Common.speedup
            (Common.speedup_at ~input ~checkpoint_every:every wl technique 24)
        in
        [
          string_of_int count;
          Xinv_util.Tab.fmt_speedup (geo (at false));
          Xinv_util.Tab.fmt_speedup (geo (at true));
        ])
      counts
  in
  "Figure 5.3: geomean loop speedup at 24 threads vs number of checkpoints,\n\
   without misspeculation and with one misspeculation injected mid-run\n\n"
  ^ Xinv_util.Tab.render
      ~header:[ "checkpoints"; "no misspec."; "with misspec." ]
      rows

(* ---------- Figure 5.4: best of this work vs previous work ---------- *)

let fig5_4 () =
  let best_of wl techniques ~input =
    List.fold_left
      (fun acc t ->
        match Cx.applicable t wl with
        | Error _ -> acc
        | Ok () -> (
            match Common.speedup_at ~input wl t 24 with
            | o -> Stdlib.max acc (Common.speedup o)
            | exception Failure _ -> acc))
      0. techniques
  in
  let bars =
    List.concat_map
      (fun (wl : Wl.Workload.t) ->
        let input = Common.spec_input wl in
        let ours = best_of wl [ Cx.Domore; Cx.Speccross ] ~input in
        let prev =
          best_of wl
            [ Cx.Barrier; Cx.Doacross; Cx.Dswp; Cx.Inspector; Cx.Tls ]
            ~input
        in
        [
          (wl.Wl.Workload.name ^ " (this work)", ours);
          (wl.Wl.Workload.name ^ " (previous)", prev);
        ])
      (Wl.Registry.all ()
      |> List.filter (fun (w : Wl.Workload.t) ->
             w.Wl.Workload.domore_expected || w.Wl.Workload.speccross_expected))
  in
  "Figure 5.4: best speedup at 24 threads, this work (DOMORE/SPECCROSS) vs\n\
   previous techniques (barrier-synchronized DOALL/DOANY/LOCALWRITE,\n\
   DOACROSS, DSWP, inspector-executor)\n\n"
  ^ Xinv_util.Tab.render_bars bars

(* ---------- Figure 5.6: FLUIDANIMATE strategies ---------- *)

let fluid_mode_domore (wl : Wl.Workload.t) label =
  match Wl.Workload.technique_of wl label with
  | Par.Intra.Localwrite -> Xinv_speccross.Runtime.M_domore Xinv_domore.Policy.Mem_partition
  | _ -> Xinv_speccross.Runtime.M_doall

let fluid_custom ~barriers threads =
  let wl = Wl.Registry.find "FLUIDANIMATE-2" in
  let program = wl.Wl.Workload.program Wl.Workload.Ref in
  let seq_env = wl.Wl.Workload.fresh_env Wl.Workload.Ref in
  let seq_cost = Ir.Seq_interp.run program seq_env in
  let env = wl.Wl.Workload.fresh_env Wl.Workload.Ref in
  let config, profile =
    spec_config (Cx.Request.make ~technique:Cx.Speccross ~threads wl) env
  in
  let cfg =
    {
      config with
      Xinv_speccross.Runtime.spec_distance = profile.Xinv_speccross.Profiler.spec_distance;
      mode_of = fluid_mode_domore wl;
      non_spec_barriers = barriers;
    }
  in
  let r = Xinv_speccross.Runtime.run ~config:cfg program env in
  assert (Ir.Memory.equal seq_env.Ir.Env.mem env.Ir.Env.mem);
  Par.Run.speedup ~seq_cost r

let fig5_6 () =
  let wl = Wl.Registry.find "FLUIDANIMATE-2" in
  let doany_plan label =
    match Wl.Workload.technique_of wl label with
    | Par.Intra.Localwrite -> Par.Intra.Doany
    | t -> t
  in
  let manual_doany threads =
    let program = wl.Wl.Workload.program Wl.Workload.Ref in
    let seq_env = wl.Wl.Workload.fresh_env Wl.Workload.Ref in
    let seq_cost = Ir.Seq_interp.run program seq_env in
    let env = wl.Wl.Workload.fresh_env Wl.Workload.Ref in
    let r = Par.Barrier_exec.run ~threads ~plan:doany_plan program env in
    assert (Ir.Memory.equal seq_env.Ir.Env.mem env.Ir.Env.mem);
    Par.Run.speedup ~seq_cost r
  in
  let series =
    [
      Common.sweep ~label:"LOCALWRITE+Barrier" wl Cx.Barrier;
      Common.sweep ~label:"LOCALWRITE+SpecCross" wl Cx.Speccross;
      {
        Common.label = "DOMORE+Barrier";
        points =
          List.map (fun n -> (n, fluid_custom ~barriers:true n)) Common.threads_axis;
      };
      {
        Common.label = "DOMORE+SpecCross";
        points =
          List.map (fun n -> (n, fluid_custom ~barriers:false n)) Common.threads_axis;
      };
      {
        Common.label = "MANUAL(DOANY+Barrier)";
        points = List.map (fun n -> (n, manual_doany n)) Common.threads_axis;
      };
    ]
  in
  Common.render_series
    ~title:"Figure 5.6: FLUIDANIMATE program speedup under different techniques"
    series
