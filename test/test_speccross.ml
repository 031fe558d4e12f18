(* Tests for the SPECCROSS speculative runtime: correctness under speculation,
   misspeculation detection and recovery, checkpointing, the profiler, and
   the non-speculative-barrier mode. *)

module Ir = Xinv_ir
module Par = Xinv_parallel
module Sp = Xinv_speccross
module Wl = Xinv_workloads

let synth ?(seed = 1) ?(cells = 200) ?(outer = 6) ?(trip = 10) ?(inners = 2) () =
  Wl.Synth.make
    { Wl.Synth.default with Wl.Synth.seed; cells; outer; trip; inners }

(* A variant whose dynamic accesses are globally unique: no cross-invocation
   dependence can ever manifest. *)
let synth_conflict_free ?(outer = 6) ?(trip = 10) ?(inners = 2) () =
  let total = outer * trip * inners in
  let p, fresh =
    Wl.Synth.make
      { Wl.Synth.default with Wl.Synth.seed = 1; cells = total; outer; trip; inners }
  in
  let fresh' () =
    let env = fresh () in
    for i = 0 to total - 1 do
      Ir.Memory.set_int env.Ir.Env.mem "tgt" i i
    done;
    env
  in
  (p, fresh')

let config ?(workers = 3) ?(checkpoint_every = 1000) ?(spec_distance = 1 lsl 20)
    ?(inject = None) ?(barriers = false) env =
  {
    (Sp.Runtime.default_config ~workers) with
    Sp.Runtime.sig_kind =
      Xinv_runtime.Signature.Segmented (Ir.Memory.bounds env.Ir.Env.mem);
    checkpoint_every;
    spec_distance;
    inject_misspec = inject;
    non_spec_barriers = barriers;
  }

let run_spec ?workers ?checkpoint_every ?spec_distance ?inject ?barriers (p, fresh) =
  let seq_env = fresh () in
  let seq_cost = Ir.Seq_interp.run p seq_env in
  let env = fresh () in
  let cfg = config ?workers ?checkpoint_every ?spec_distance ?inject ?barriers env in
  let r = Sp.Runtime.run ~config:cfg p env in
  (seq_env, env, seq_cost, r)

let check_equal name seq_env env =
  Alcotest.(check int)
    (name ^ ": matches sequential")
    0
    (List.length (Ir.Memory.diff seq_env.Ir.Env.mem env.Ir.Env.mem))

let test_spec_correct_no_conflicts () =
  List.iter
    (fun workers ->
      let seq_env, env, _, r = run_spec ~workers (synth_conflict_free ()) in
      check_equal (Printf.sprintf "spec@%d" workers) seq_env env;
      Alcotest.(check int) "no misspeculation" 0 r.Par.Run.misspecs)
    [ 1; 2; 4; 8 ]

let test_spec_faster_than_barriers () =
  let p, fresh = synth_conflict_free ~outer:12 ~trip:8 () in
  let seq_cost = Ir.Seq_interp.run p (fresh ()) in
  let env_b = fresh () in
  let rb = Par.Barrier_exec.run ~threads:8 ~plan:(fun _ -> Par.Intra.Doall) p env_b in
  let _, _, _, rs = run_spec ~workers:7 (p, fresh) in
  Alcotest.(check bool) "speculative barriers win" true
    (Par.Run.speedup ~seq_cost rs > Par.Run.speedup ~seq_cost rb)

let test_misspec_detection_on_real_conflict () =
  (* Dense conflicts with unbounded speculation: the checker must catch a
     violation (or the schedule must happen to be safe), and the final state
     must match sequential either way. *)
  let p, fresh = synth ~seed:5 ~cells:8 ~outer:8 ~trip:6 () in
  let seq_env, env, _, r = run_spec ~workers:4 ~checkpoint_every:4 (p, fresh) in
  check_equal "recovered state" seq_env env;
  Alcotest.(check bool) "misspeculation detected" true (r.Par.Run.misspecs > 0)

let test_throttle_prevents_misspec () =
  (* A crafted program whose conflicts sit at exactly one invocation's
     distance: the profiled throttle must keep speculation safe. *)
  let trip = 6 in
  let p, fresh =
    Wl.Synth.make
      { Wl.Synth.default with Wl.Synth.seed = 5; cells = trip; outer = 8; trip; inners = 1 }
  in
  let fix env =
    for i = 0 to Ir.Memory.size env.Ir.Env.mem "tgt" - 1 do
      Ir.Memory.set_int env.Ir.Env.mem "tgt" i (i mod trip)
    done;
    env
  in
  let fresh () = fix (fresh ()) in
  let prof = Sp.Profiler.profile p (fresh ()) in
  (match prof.Sp.Profiler.min_task_distance with
  | Some d -> Alcotest.(check int) "distance is one invocation" trip d
  | None -> Alcotest.fail "expected profiled conflicts");
  let seq_env, env, _, r = run_spec ~workers:2 ~spec_distance:trip (p, fresh) in
  check_equal "throttled" seq_env env;
  Alcotest.(check int) "no misspeculation" 0 r.Par.Run.misspecs

let test_injected_misspec_recovers () =
  let p, fresh = synth ~seed:7 ~outer:8 () in
  let seq_env, env, _, r =
    run_spec ~workers:3 ~checkpoint_every:4 ~inject:(Some (9, 0)) (p, fresh)
  in
  check_equal "after recovery" seq_env env;
  Alcotest.(check int) "exactly one recovery" 1 r.Par.Run.misspecs

let test_injected_misspec_costs_time () =
  let p, fresh = synth ~seed:7 ~outer:8 () in
  let _, _, _, clean = run_spec ~workers:3 ~checkpoint_every:4 (p, fresh) in
  let _, _, _, dirty =
    run_spec ~workers:3 ~checkpoint_every:4 ~inject:(Some (9, 0)) (p, fresh)
  in
  Alcotest.(check bool) "recovery slows the run" true
    (dirty.Par.Run.makespan > clean.Par.Run.makespan)

let test_checkpoint_overhead_grows () =
  let p, fresh = synth ~seed:11 ~outer:16 () in
  let _, _, _, few = run_spec ~workers:3 ~checkpoint_every:16 (p, fresh) in
  let _, _, _, many = run_spec ~workers:3 ~checkpoint_every:1 (p, fresh) in
  Alcotest.(check bool) "checkpointing every epoch costs more" true
    (many.Par.Run.makespan > few.Par.Run.makespan)

let test_non_spec_barrier_mode () =
  let p, fresh = synth ~seed:13 () in
  let seq_env, env, _, r = run_spec ~workers:3 ~barriers:true (p, fresh) in
  check_equal "barrier mode" seq_env env;
  Alcotest.(check int) "no checking requests" 0 r.Par.Run.checks;
  Alcotest.(check bool) "barrier time charged" true
    (Par.Run.category_total r Xinv_sim.Category.Barrier_wait > 0.)

let test_checker_requests_counted () =
  let p, fresh = synth ~seed:17 () in
  let _, _, _, r = run_spec ~workers:3 (p, fresh) in
  Alcotest.(check int) "one request per task" r.Par.Run.tasks r.Par.Run.checks

let test_tm_style_costs_more () =
  let p, fresh = synth_conflict_free ~outer:10 ~trip:12 () in
  let run tm =
    let env = fresh () in
    let cfg = { (config ~workers:6 env) with Sp.Runtime.tm_style = tm } in
    Sp.Runtime.run ~config:cfg p env
  in
  let plain = run false and tm = run true in
  let checker (r : Par.Run.t) =
    Xinv_sim.Engine.total r.Par.Run.engine Xinv_sim.Category.Checker
  in
  Alcotest.(check bool) "TM checking strictly more expensive" true
    (checker tm > checker plain);
  Alcotest.(check int) "TM never misspeculates on independent epochs" 0
    tm.Par.Run.misspecs

let test_profiler () =
  let p, fresh = synth ~seed:19 ~cells:10 () in
  let prof = Sp.Profiler.profile p (fresh ()) in
  Alcotest.(check int) "epochs" (Ir.Program.invocations p) prof.Sp.Profiler.epochs;
  Alcotest.(check int) "tasks" (Ir.Program.total_iterations p (fresh ()))
    prof.Sp.Profiler.tasks;
  Alcotest.(check bool) "conflicts found on tight cells" true
    (prof.Sp.Profiler.min_task_distance <> None);
  Alcotest.(check bool) "profitability threshold" true
    (Sp.Profiler.profitable prof ~workers:1)

let test_profiler_conflict_free () =
  let p, fresh = synth ~seed:19 ~cells:100_000 ~outer:3 ~trip:5 ~inners:1 () in
  (* Make targets globally unique. *)
  let env = fresh () in
  let n = Ir.Memory.size env.Ir.Env.mem "tgt" in
  for i = 0 to n - 1 do
    Ir.Memory.set_int env.Ir.Env.mem "tgt" i i
  done;
  let prof = Sp.Profiler.profile p env in
  Alcotest.(check (option int)) "no distance" None prof.Sp.Profiler.min_task_distance;
  Alcotest.(check bool) "always profitable" true (Sp.Profiler.profitable prof ~workers:24)

let test_irreversible_epochs_exactly_once () =
  (* A frame loop with a side-effecting logging invocation: each occurrence
     must execute exactly once even when a later misspeculation forces
     recovery. *)
  let outer = 6 and trip = 8 in
  let work_p, fresh_work =
    Wl.Synth.make
      { Wl.Synth.default with Wl.Synth.seed = 3; cells = 30; outer; trip; inners = 1 }
  in
  let logger =
    Ir.Stmt.make ~side_effect:true
      ~writes:[ Ir.Access.make "log" Ir.Expr.o ]
      ~cost:(Ir.Stmt.fixed_cost 120.)
      ~exec:(fun env ->
        let mem = env.Ir.Env.mem in
        Ir.Memory.set_float mem "log" env.Ir.Env.t_outer
          (Ir.Memory.get_float mem "log" env.Ir.Env.t_outer +. 1.))
      "emit(frame)"
  in
  let p =
    { work_p with
      Ir.Program.inners =
        work_p.Ir.Program.inners
        @ [ Ir.Program.inner ~label:"io" ~trip:(Ir.Program.const_trip 1) [ logger ] ] }
  in
  let fresh () =
    let base = fresh_work () in
    let specs =
      Ir.Memory.to_specs base.Ir.Env.mem @ [ Ir.Memory.Floats ("log", Array.make outer 0.) ]
    in
    Ir.Env.make (Ir.Memory.create specs)
  in
  let seq_env = fresh () in
  ignore (Ir.Seq_interp.run p seq_env);
  let env = fresh () in
  let cfg = config ~workers:3 ~checkpoint_every:1000 ~inject:(Some (4, 0)) env in
  let r = Sp.Runtime.run ~config:cfg p env in
  check_equal "with io epochs" seq_env env;
  Alcotest.(check bool) "misspeculation occurred" true (r.Par.Run.misspecs > 0);
  for t = 0 to outer - 1 do
    Alcotest.(check (float 1e-9)) "log written exactly once" 1.
      (Ir.Memory.get_float env.Ir.Env.mem "log" t)
  done

(* DOMORE epochs whose write addresses go through an index array that the
   previous epoch rewrites: "route" (DOALL) updates idx[j], then "scatter"
   (DOMORE, owner by the written cell) folds j into data[idx[j]].  Odd
   iterations route slowly, so a worker that schedules "scatter" while a
   peer is still routing reads a stale index and can disagree with its
   peers on an owner. *)
let routed ?(outer = 8) ?(trip = 12) ?(cells = 24) () =
  let at = Ir.Expr.(ld "idx" i) in
  let route =
    Ir.Stmt.make
      ~reads:[ Ir.Access.make "idx" Ir.Expr.i ]
      ~writes:[ Ir.Access.make "idx" Ir.Expr.i ]
      ~cost:(fun env -> if env.Ir.Env.j_inner mod 2 = 1 then 3000. else 100.)
      ~exec:(fun env ->
        let mem = env.Ir.Env.mem and j = env.Ir.Env.j_inner in
        Ir.Memory.set_int mem "idx" j
          (((Ir.Memory.get_int mem "idx" j * 7) + env.Ir.Env.t_outer + 3) mod cells))
      "route"
  in
  let scatter =
    Ir.Stmt.make
      ~reads:[ Ir.Access.make "idx" Ir.Expr.i; Ir.Access.make "data" at ]
      ~writes:[ Ir.Access.make "data" at ]
      ~cost:(Ir.Stmt.fixed_cost 500.)
      ~exec:(fun env ->
        let mem = env.Ir.Env.mem in
        let c = Ref_expr.eval env at in
        Ir.Memory.set_float mem "data" c
          ((Ir.Memory.get_float mem "data" c *. 0.5) +. float_of_int (env.Ir.Env.j_inner + 1)))
      "scatter"
  in
  let inner label st = Ir.Program.inner ~label ~trip:(Ir.Program.const_trip trip) [ st ] in
  let p =
    Ir.Program.make ~name:"ROUTED" ~outer_trip:outer
      [ inner "route" route; inner "scatter" scatter ]
  in
  let fresh () =
    Ir.Env.make
      (Ir.Memory.create
         [ Ir.Memory.Ints ("idx", Array.init trip (fun j -> j * 5 mod cells));
           Ir.Memory.Floats ("data", Array.make cells 1.) ])
  in
  let mode_of = function
    | "scatter" -> Sp.Protocol.M_domore Xinv_domore.Policy.Mem_partition
    | _ -> Sp.Protocol.M_doall
  in
  (p, fresh, mode_of)

let test_domore_stale_schedules () =
  let p, fresh, mode_of = routed () in
  let seq_env = fresh () in
  ignore (Ir.Seq_interp.run p seq_env);
  List.iter
    (fun (workers, checkpoint_every) ->
      let env = fresh () in
      let cfg = { (config ~workers ~checkpoint_every env) with Sp.Runtime.mode_of } in
      let r = Sp.Runtime.run ~config:cfg p env in
      let tag = Printf.sprintf "%d workers, checkpoint every %d" workers checkpoint_every in
      check_equal tag seq_env env;
      Alcotest.(check int) (tag ^ ": every iteration counted") (8 * 2 * 12) r.Par.Run.tasks)
    [ (2, 4); (2, 0); (3, 4); (4, 4); (3, 0); (4, 1000) ]

(* Property: speculation with recovery is semantically transparent for random
   conflict densities, worker counts, speculation ranges and checkpoint
   intervals. *)
let prop_spec_transparent =
  QCheck.Test.make ~name:"SPECCROSS always lands in the sequential state" ~count:40
    QCheck.(
      quad (int_range 1 10_000) (int_range 1 6) (int_range 12 60) (int_range 1 16))
    (fun (seed, workers, cells, every) ->
      let p, fresh =
        Wl.Synth.make
          { Wl.Synth.default with Wl.Synth.seed; cells; outer = 5; trip = 8 }
      in
      let seq_env = fresh () in
      ignore (Ir.Seq_interp.run p seq_env);
      let env = fresh () in
      let cfg = config ~workers ~checkpoint_every:every env in
      ignore (Sp.Runtime.run ~config:cfg p env);
      Ir.Memory.equal seq_env.Ir.Env.mem env.Ir.Env.mem)

(* Property: with the profiled distance as throttle, no misspeculation occurs
   when the performance input equals the profiling input. *)
let prop_profile_guided_no_misspec =
  QCheck.Test.make ~name:"profile-guided throttle avoids misspeculation" ~count:25
    QCheck.(pair (int_range 1 10_000) (int_range 2 6))
    (fun (seed, workers) ->
      let p, fresh =
        Wl.Synth.make
          { Wl.Synth.default with Wl.Synth.seed; cells = 24; outer = 5; trip = 8 }
      in
      let prof = Sp.Profiler.profile p (fresh ()) in
      let d =
        match prof.Sp.Profiler.min_task_distance with
        | Some d -> d
        | None -> 1 lsl 20
      in
      (* Below the worker count the planner would refuse to speculate. *)
      QCheck.assume (d >= workers);
      let env = fresh () in
      let cfg = config ~workers ~spec_distance:d env in
      let r = Sp.Runtime.run ~config:cfg p env in
      r.Par.Run.misspecs = 0)

let suite =
  [
    Alcotest.test_case "correct without conflicts" `Quick test_spec_correct_no_conflicts;
    Alcotest.test_case "faster than barriers" `Quick test_spec_faster_than_barriers;
    Alcotest.test_case "misspec detection" `Quick test_misspec_detection_on_real_conflict;
    Alcotest.test_case "throttle prevents misspec" `Quick test_throttle_prevents_misspec;
    Alcotest.test_case "injected misspec recovers" `Quick test_injected_misspec_recovers;
    Alcotest.test_case "misspec costs time" `Quick test_injected_misspec_costs_time;
    Alcotest.test_case "checkpoint overhead" `Quick test_checkpoint_overhead_grows;
    Alcotest.test_case "non-spec barrier mode" `Quick test_non_spec_barrier_mode;
    Alcotest.test_case "irreversible epochs" `Quick test_irreversible_epochs_exactly_once;
    Alcotest.test_case "checker request count" `Quick test_checker_requests_counted;
    Alcotest.test_case "tm-style checking costs" `Quick test_tm_style_costs_more;
    Alcotest.test_case "profiler" `Quick test_profiler;
    Alcotest.test_case "profiler conflict-free" `Quick test_profiler_conflict_free;
    QCheck_alcotest.to_alcotest prop_spec_transparent;
    QCheck_alcotest.to_alcotest prop_profile_guided_no_misspec;
    Alcotest.test_case "DOMORE epochs: stale schedules repaired" `Quick
      test_domore_stale_schedules;
  ]
