(* Tests for the intra-invocation baselines and the barrier execution model:
   every parallel schedule must produce the exact sequential memory state. *)

module Ir = Xinv_ir
module Par = Xinv_parallel
module Wl = Xinv_workloads

let verify_equal name seq_env env =
  let diff = Ir.Memory.diff seq_env.Ir.Env.mem env.Ir.Env.mem in
  Alcotest.(check int) (name ^ ": memory matches sequential") 0 (List.length diff)

let run_barrier ?(threads = 3) ~technique (p, fresh) =
  let seq_env = fresh () in
  let seq_cost = Ir.Seq_interp.run p seq_env in
  let env = fresh () in
  let r = Par.Barrier_exec.run ~threads ~plan:(fun _ -> technique) p env in
  (seq_env, env, seq_cost, r)

let synth ?(within_safe = true) ?(seed = 1) ?(inners = 2) () =
  Wl.Synth.make
    { Wl.Synth.default with Wl.Synth.within_safe; seed; inners; outer = 6; trip = 10 }

let test_doall_correct () =
  List.iter
    (fun threads ->
      let seq_env, env, _, _ = run_barrier ~threads ~technique:Par.Intra.Doall (synth ()) in
      verify_equal (Printf.sprintf "doall@%d" threads) seq_env env)
    [ 1; 2; 3; 8 ]

let test_doall_speedup_reasonable () =
  let _, _, seq_cost, r = run_barrier ~threads:4 ~technique:Par.Intra.Doall (synth ()) in
  let s = Par.Run.speedup ~seq_cost r in
  Alcotest.(check bool) "speedup within (0.1, 4]" true (s > 0.1 && s <= 4.0)

let test_localwrite_correct () =
  (* Conflicting within-invocation writes: LOCALWRITE must still match. *)
  List.iter
    (fun threads ->
      let seq_env, env, _, _ =
        run_barrier ~threads ~technique:Par.Intra.Localwrite
          (synth ~within_safe:false ~seed:5 ())
      in
      verify_equal (Printf.sprintf "localwrite@%d" threads) seq_env env)
    [ 1; 2; 3; 8 ]

let test_localwrite_redundant_accounting () =
  let _, _, _, r =
    run_barrier ~threads:4 ~technique:Par.Intra.Localwrite (synth ~within_safe:false ())
  in
  Alcotest.(check bool) "redundant time recorded" true
    (Par.Run.category_total r Xinv_sim.Category.Redundant > 0.)

let test_spec_doall_correct () =
  let seq_env, env, _, r =
    run_barrier ~threads:4 ~technique:Par.Intra.Spec_doall (synth ())
  in
  verify_equal "spec-doall" seq_env env;
  Alcotest.(check bool) "validation overhead charged" true
    (Par.Run.category_total r Xinv_sim.Category.Runtime > 0.)

(* DOANY needs commutative updates: build one directly. *)
let doany_program () =
  let at = Ir.Expr.ld "tgt" Ir.Expr.((o * c 6) + i) in
  let body =
    Ir.Stmt.make ~commutes:true
      ~reads:[ Ir.Access.make "acc" at ]
      ~writes:[ Ir.Access.make "acc" at ]
      ~cost:(Ir.Stmt.fixed_cost 80.)
      ~exec:(fun env ->
        let mem = env.Ir.Env.mem in
        let x = Ref_expr.eval env at in
        Ir.Memory.set_float mem "acc" x (Ir.Memory.get_float mem "acc" x +. 2.))
      "acc+=2"
  in
  let p =
    Ir.Program.make ~name:"doany" ~outer_trip:5
      [ Ir.Program.inner ~label:"L" ~trip:(Ir.Program.const_trip 6) [ body ] ]
  in
  let fresh () =
    Ir.Env.make
      (Ir.Memory.create
         [
           Ir.Memory.Ints ("tgt", Array.init 30 (fun i -> i mod 4));
           Ir.Memory.Floats ("acc", Array.make 4 0.);
         ])
  in
  (p, fresh)

let test_doany_correct () =
  let seq_env, env, _, r = run_barrier ~threads:4 ~technique:Par.Intra.Doany (doany_program ()) in
  verify_equal "doany" seq_env env;
  ignore r

let test_barrier_counts () =
  let p, fresh = synth ~inners:3 () in
  let _, _, _, r = run_barrier ~threads:3 ~technique:Par.Intra.Doall (p, fresh) in
  Alcotest.(check int) "one barrier per invocation" (Ir.Program.invocations p)
    r.Par.Run.barrier_episodes;
  Alcotest.(check int) "invocations" (Ir.Program.invocations p) r.Par.Run.invocations;
  Alcotest.(check int) "tasks" (Ir.Program.total_iterations p (fresh ()))
    r.Par.Run.tasks;
  Alcotest.(check bool) "barrier overhead positive" true
    (Par.Run.barrier_overhead_pct r > 0.)

let test_doacross_correct () =
  let p, fresh = synth ~within_safe:false ~seed:9 () in
  let seq_env = fresh () in
  ignore (Ir.Seq_interp.run p seq_env);
  let env = fresh () in
  ignore (Par.Doacross.run ~threads:3 p env);
  verify_equal "doacross" seq_env env

let test_dswp_correct () =
  let p, fresh = synth ~within_safe:false ~seed:11 () in
  let seq_env = fresh () in
  ignore (Ir.Seq_interp.run p seq_env);
  let env = fresh () in
  let r = Par.Dswp.run ~threads:4 p env in
  verify_equal "dswp" seq_env env;
  Alcotest.(check bool) "stages computed" true (List.length (Par.Dswp.stages p) > 0);
  ignore r

let test_inspector_correct () =
  let p, fresh = synth ~within_safe:false ~seed:15 () in
  let seq_env = fresh () in
  ignore (Ir.Seq_interp.run p seq_env);
  let env = fresh () in
  (match Ir.Mtcg.generate p env with
  | Ir.Mtcg.Inapplicable r -> Alcotest.failf "inapplicable: %s" r
  | Ir.Mtcg.Plan plan -> ignore (Par.Inspector.run ~threads:4 ~plan p env));
  verify_equal "inspector-executor" seq_env env

let test_inspector_wavefronts () =
  (* Three iterations hitting cells a, a, b: waves 0, 1, 0. *)
  let at = Ir.Expr.ld "tgt" Ir.Expr.i in
  let body =
    Ir.Stmt.make
      ~reads:[ Ir.Access.make "d" at ]
      ~writes:[ Ir.Access.make "d" at ]
      ~cost:(Ir.Stmt.fixed_cost 300.) "w"
  in
  let p =
    Ir.Program.make ~name:"wf" ~outer_trip:1
      [ Ir.Program.inner ~label:"L" ~trip:(Ir.Program.const_trip 3) [ body ] ]
  in
  let env =
    Ir.Env.make
      (Ir.Memory.create
         [ Ir.Memory.Ints ("tgt", [| 0; 0; 1 |]); Ir.Memory.Floats ("d", Array.make 2 0.) ])
  in
  match Ir.Mtcg.generate p env with
  | Ir.Mtcg.Inapplicable r -> Alcotest.failf "inapplicable: %s" r
  | Ir.Mtcg.Plan plan ->
      let reads, writes = Ir.Slice.resolve plan.Ir.Mtcg.slice env.Ir.Env.mem in
      let w = Par.Inspector.wavefronts ~reads ~writes env ~trip:3 in
      Alcotest.(check (array int)) "wavefronts" [| 0; 1; 0 |] w

let test_tls_correct_and_squashes () =
  (* Conflict-dense program: TLS must squash at least once and still land in
     the sequential state. *)
  let p, fresh = synth ~within_safe:false ~seed:19 () in
  let seq_env = fresh () in
  ignore (Ir.Seq_interp.run p seq_env);
  let env = fresh () in
  (match Ir.Mtcg.generate p env with
  | Ir.Mtcg.Inapplicable r -> Alcotest.failf "inapplicable: %s" r
  | Ir.Mtcg.Plan plan ->
      let r = Par.Tls.run ~threads:4 ~plan p env in
      Alcotest.(check bool) "squashes observed" true (r.Par.Run.misspecs > 0));
  verify_equal "tls conflict-dense" seq_env env

let test_tls_no_squash_when_independent () =
  let p, fresh = synth ~seed:23 () in
  (* Distinct targets within each invocation and a large cell space: rare or
     no dynamic conflicts within an invocation. *)
  let seq_env = fresh () in
  ignore (Ir.Seq_interp.run p seq_env);
  let env = fresh () in
  (match Ir.Mtcg.generate p env with
  | Ir.Mtcg.Inapplicable r -> Alcotest.failf "inapplicable: %s" r
  | Ir.Mtcg.Plan plan ->
      let r = Par.Tls.run ~threads:4 ~plan p env in
      Alcotest.(check int) "no squashes within invocations" 0 r.Par.Run.misspecs);
  verify_equal "tls independent" seq_env env

let test_plan_rules () =
  (* Conflict-free affine body -> DOALL. *)
  let affine_body =
    Ir.Stmt.make
      ~writes:[ Ir.Access.make "a" Ir.Expr.i ]
      ~cost:(Ir.Stmt.fixed_cost 10.) "w"
  in
  let p1 =
    Ir.Program.make ~name:"p1" ~outer_trip:2
      [ Ir.Program.inner ~label:"L" ~trip:(Ir.Program.const_trip 4) [ affine_body ] ]
  in
  (match Par.Plan.choose p1 with
  | [ c ] -> Alcotest.(check bool) "doall chosen" true (c.Par.Plan.technique = Par.Intra.Doall)
  | _ -> Alcotest.fail "one choice expected");
  (* Commutative irregular conflicts -> DOANY. *)
  let doany_p, _ = doany_program () in
  (match Par.Plan.choose doany_p with
  | [ c ] -> Alcotest.(check bool) "doany chosen" true (c.Par.Plan.technique = Par.Intra.Doany)
  | _ -> Alcotest.fail "one choice expected");
  (* Irregular non-commutative with single write -> LOCALWRITE (without a
     profile claiming they never manifest). *)
  let p3, _ = synth ~within_safe:false () in
  List.iter
    (fun c ->
      Alcotest.(check bool) "localwrite chosen" true
        (c.Par.Plan.technique = Par.Intra.Localwrite))
    (Par.Plan.choose p3);
  (* Same program, but a profile showing no within-invocation conflicts ->
     Spec-DOALL. *)
  let p4, fresh4 = synth ~within_safe:true () in
  let prof = Ir.Profile.run p4 (fresh4 ()) in
  List.iter
    (fun c ->
      Alcotest.(check bool) "spec-doall chosen" true
        (c.Par.Plan.technique = Par.Intra.Spec_doall))
    (Par.Plan.choose ~profile:prof p4)

(* Property: iterations assigned to the same wavefront never conflict, and
   every iteration's dependences sit in strictly earlier wavefronts. *)
let prop_wavefronts_sound =
  QCheck.Test.make ~name:"inspector wavefronts are conflict-free levels" ~count:50
    QCheck.(pair (int_range 1 10_000) (int_range 2 24))
    (fun (seed, cells) ->
      let trip = 12 in
      let p, fresh =
        Wl.Synth.make
          {
            Wl.Synth.default with
            Wl.Synth.seed;
            cells;
            outer = 1;
            trip;
            inners = 1;
            within_safe = false;
          }
      in
      let env = fresh () in
      match Ir.Mtcg.generate p env with
      | Ir.Mtcg.Inapplicable _ -> false
      | Ir.Mtcg.Plan plan ->
          let slice = plan.Ir.Mtcg.slice in
          let reads, writes = Ir.Slice.resolve slice env.Ir.Env.mem in
          let wave = Par.Inspector.wavefronts ~reads ~writes env ~trip in
          let addr j =
            let env_j = Ir.Env.with_inner env j in
            List.sort_uniq compare
              (List.map (Ref_expr.addr env_j env.Ir.Env.mem)
                 (slice.Ir.Slice.reads @ slice.Ir.Slice.writes))
          in
          let conflict j k =
            List.exists (fun a -> List.mem a (addr k)) (addr j)
          in
          let ok = ref true in
          for j = 0 to trip - 1 do
            for k = j + 1 to trip - 1 do
              if conflict j k then begin
                (* Later conflicting iteration must be in a later wave. *)
                if wave.(k) <= wave.(j) then ok := false
              end
            done
          done;
          !ok)

(* Property: for random synthetic programs, barrier-parallel DOALL execution
   (legal because each invocation's targets are distinct) is exact. *)
let prop_barrier_exec_correct =
  QCheck.Test.make ~name:"barrier DOALL matches sequential on random programs"
    ~count:25
    QCheck.(pair (int_range 1 1000) (int_range 1 6))
    (fun (seed, threads) ->
      let p, fresh =
        Wl.Synth.make
          { Wl.Synth.default with Wl.Synth.seed; outer = 4; trip = 8; cells = 30 }
      in
      let seq_env = fresh () in
      ignore (Ir.Seq_interp.run p seq_env);
      let env = fresh () in
      ignore (Par.Barrier_exec.run ~threads ~plan:(fun _ -> Par.Intra.Doall) p env);
      Ir.Memory.equal seq_env.Ir.Env.mem env.Ir.Env.mem)

(* Property: LOCALWRITE handles conflict-heavy random programs exactly. *)
let prop_localwrite_correct =
  QCheck.Test.make ~name:"LOCALWRITE matches sequential under conflicts" ~count:25
    QCheck.(pair (int_range 1 1000) (int_range 1 6))
    (fun (seed, threads) ->
      let p, fresh =
        Wl.Synth.make
          {
            Wl.Synth.default with
            Wl.Synth.seed;
            within_safe = false;
            outer = 4;
            trip = 8;
            cells = 12;
          }
      in
      let seq_env = fresh () in
      ignore (Ir.Seq_interp.run p seq_env);
      let env = fresh () in
      ignore (Par.Barrier_exec.run ~threads ~plan:(fun _ -> Par.Intra.Localwrite) p env);
      Ir.Memory.equal seq_env.Ir.Env.mem env.Ir.Env.mem)

let suite =
  [
    Alcotest.test_case "doall correct" `Quick test_doall_correct;
    Alcotest.test_case "doall speedup sane" `Quick test_doall_speedup_reasonable;
    Alcotest.test_case "localwrite correct" `Quick test_localwrite_correct;
    Alcotest.test_case "localwrite redundancy" `Quick test_localwrite_redundant_accounting;
    Alcotest.test_case "spec-doall correct" `Quick test_spec_doall_correct;
    Alcotest.test_case "doany correct" `Quick test_doany_correct;
    Alcotest.test_case "barrier accounting" `Quick test_barrier_counts;
    Alcotest.test_case "doacross correct" `Quick test_doacross_correct;
    Alcotest.test_case "dswp correct" `Quick test_dswp_correct;
    Alcotest.test_case "plan rules" `Quick test_plan_rules;
    Alcotest.test_case "tls correctness + squash" `Quick test_tls_correct_and_squashes;
    Alcotest.test_case "tls no squash when independent" `Quick test_tls_no_squash_when_independent;
    Alcotest.test_case "inspector-executor correct" `Quick test_inspector_correct;
    Alcotest.test_case "inspector wavefronts" `Quick test_inspector_wavefronts;
    QCheck_alcotest.to_alcotest prop_barrier_exec_correct;
    QCheck_alcotest.to_alcotest prop_wavefronts_sound;
    QCheck_alcotest.to_alcotest prop_localwrite_correct;
  ]
