(* Tests for the compiler substrate: expressions, dependence analysis, PDG,
   partitioning, slicing, MTCG, profiling. *)

module Ir = Xinv_ir
module E = Xinv_ir.Expr

let mk_env specs = Ir.Env.make (Ir.Memory.create specs)

let test_expr_eval () =
  let env =
    mk_env [ Ir.Memory.Ints ("idx", [| 7; 8; 9 |]) ]
  in
  let env = Ir.Env.with_outer (Ir.Env.with_inner env 2) 5 in
  let eval env e = E.compile env.Ir.Env.mem e env in
  Alcotest.(check int) "const" 3 (eval env (E.c 3));
  Alcotest.(check int) "ivar" 2 (eval env E.i);
  Alcotest.(check int) "ovar" 5 (eval env E.o);
  Alcotest.(check int) "load" 9 (eval env (E.ld "idx" E.i));
  Alcotest.(check int) "arith" 17 E.(eval env ((o * c 3) + i));
  Alcotest.(check int) "mod" 1 E.(eval env (Bin (Mod, o, c 2)));
  Alcotest.(check int) "min" 2 E.(eval env (Bin (Min, i, o)));
  (* Compiled once: a later store to the index array is seen, as it is
     after restoring a snapshot into the same memory. *)
  let at = E.compile env.Ir.Env.mem (E.ld "idx" E.i) in
  let snap = Ir.Memory.snapshot env.Ir.Env.mem in
  Ir.Memory.set_int env.Ir.Env.mem "idx" 2 4;
  Alcotest.(check int) "load sees stores" 4 (at env);
  Ir.Memory.restore ~dst:env.Ir.Env.mem ~src:snap;
  Alcotest.(check int) "load sees restore" 9 (at env)

let test_expr_helpers () =
  let e = E.(ld "a" (i + c 1)) in
  Alcotest.(check bool) "uses ivar" true (E.uses_ivar e);
  Alcotest.(check bool) "not ovar" false (E.uses_ovar e);
  Alcotest.(check int) "size" 4 (E.size e);
  Alcotest.(check int) "loads" 1 (List.length (E.loads e));
  Alcotest.(check string) "pp" "a[(j + 1)]" (E.to_string e)

let affine_t = Alcotest.testable Ir.Affine.pp Ir.Affine.equal

let test_affine () =
  let check_some name e exp =
    match Ir.Affine.of_expr e with
    | Some a -> Alcotest.check affine_t name exp a
    | None -> Alcotest.failf "%s: expected affine" name
  in
  check_some "i+1" E.(i + c 1) { Ir.Affine.ci = 1; co = 0; k = 1 };
  check_some "3*o - i" E.((c 3 * o) - i) { Ir.Affine.ci = -1; co = 3; k = 0 };
  check_some "o*100 + i" E.((o * c 100) + i) { Ir.Affine.ci = 1; co = 100; k = 0 };
  Alcotest.(check bool) "load not affine" true (Ir.Affine.of_expr (E.ld "x" E.i) = None);
  Alcotest.(check bool) "i*i not affine" true (Ir.Affine.of_expr E.(i * i) = None);
  Alcotest.(check bool) "param not affine" true
    (Ir.Affine.of_expr (E.Param "p") = None)

let test_affine_overlap () =
  let f e = Option.get (Ir.Affine.of_expr e) in
  Alcotest.(check bool) "A[i] vs A[i] same-iter only" true
    (Ir.Affine.same_iteration_only (f E.i) (f E.i));
  Alcotest.(check bool) "A[i] vs A[i+1] not same-iter" false
    (Ir.Affine.same_iteration_only (f E.i) (f E.(i + c 1)));
  Alcotest.(check bool) "A[i] overlaps A[i+1]" true
    (Ir.Affine.overlaps_some_iteration (f E.i) (f E.(i + c 1)));
  Alcotest.(check bool) "A[2i] vs A[2i+1] disjoint" false
    (Ir.Affine.overlaps_some_iteration (f E.(c 2 * i)) (f E.((c 2 * i) + c 1)))

let test_access () =
  let a1 = Ir.Access.make "A" E.i and a2 = Ir.Access.make "A" E.(i + c 1) in
  let b = Ir.Access.make "B" E.i in
  Alcotest.(check bool) "same array may conflict" true (Ir.Access.may_conflict a1 a2);
  Alcotest.(check bool) "different arrays never" false (Ir.Access.may_conflict a1 b);
  Alcotest.(check bool) "irregular conflicts" true
    (Ir.Access.may_conflict a1 (Ir.Access.make "A" (E.ld "idx" E.i)));
  Alcotest.(check bool) "same-iteration-only" true (Ir.Access.same_iteration_only a1 a1)

let test_memory () =
  let m =
    Ir.Memory.create
      [ Ir.Memory.Ints ("x", [| 1; 2 |]); Ir.Memory.Floats ("y", [| 1.5; 2.5; 3.5 |]) ]
  in
  Alcotest.(check int) "base y" 2 (Ir.Memory.base m "y");
  let y i = Ir.Footprint.site m (Ir.Access.make "y" (E.c i)) in
  let env = Ir.Env.make m in
  Alcotest.(check int) "addr" 3 (Ir.Footprint.addr env (y 1));
  Alcotest.(check int) "total" 5 (Ir.Memory.total_words m);
  Alcotest.(check bool) "bounds" true (Ir.Memory.bounds m = [| 0; 2 |]);
  let snap = Ir.Memory.snapshot m in
  Ir.Memory.set_float m "y" 0 9.;
  Ir.Memory.set_int m "x" 1 7;
  Alcotest.(check int) "diff count" 2 (List.length (Ir.Memory.diff m snap));
  Alcotest.(check bool) "not equal" false (Ir.Memory.equal m snap);
  Ir.Memory.restore ~dst:m ~src:snap;
  Alcotest.(check bool) "restored" true (Ir.Memory.equal m snap);
  Alcotest.check_raises "oob addr"
    (Invalid_argument "Footprint: y[3] out of bounds (size 3)") (fun () ->
      ignore (Ir.Footprint.addr env (y 3)));
  let specs = Ir.Memory.to_specs m in
  Alcotest.(check bool) "to_specs round-trip" true
    (Ir.Memory.equal m (Ir.Memory.create specs))

(* A small program: outer 3, L1 writes acc[tgt[...]] (irregular), with a
   read-only pre statement. *)
let small_program ?(pre_reads = []) () =
  let at = E.ld "tgt" E.((o * c 4) + i) in
  let body =
    Ir.Stmt.make
      ~reads:[ Ir.Access.make "acc" at ]
      ~writes:[ Ir.Access.make "acc" at ]
      ~cost:(Ir.Stmt.fixed_cost 100.)
      ~exec:(fun env ->
        let mem = env.Ir.Env.mem in
        let x = Ref_expr.eval env at in
        Ir.Memory.set_float mem "acc" x (Ir.Memory.get_float mem "acc" x +. 1.))
      "upd"
  in
  let pre = Ir.Stmt.make ~reads:pre_reads ~cost:(Ir.Stmt.fixed_cost 10.) "pre" in
  ( Ir.Program.make ~name:"small" ~outer_trip:3
      [ Ir.Program.inner ~pre:[ pre ] ~label:"L" ~trip:(Ir.Program.const_trip 4) [ body ] ],
    fun () ->
      mk_env
        [
          Ir.Memory.Ints ("tgt", Array.init 12 (fun i -> (i * 5) mod 8));
          Ir.Memory.Floats ("acc", Array.make 8 0.);
        ] )

let test_program_shape () =
  let p, fresh = small_program () in
  Alcotest.(check int) "invocations" 3 (Ir.Program.invocations p);
  Alcotest.(check int) "total iterations" 12 (Ir.Program.total_iterations p (fresh ()));
  Alcotest.(check int) "all stmts" 2 (List.length (Ir.Program.all_stmts p));
  Alcotest.(check int) "body stmts" 1 (List.length (Ir.Program.body_stmts p));
  let il = Ir.Program.find_inner p "L" in
  Alcotest.(check (float 1e-9)) "iteration cost" 100.
    (Ir.Program.iteration_cost p il (fresh ()))

let test_seq_interp () =
  let p, fresh = small_program () in
  let env = fresh () in
  let cost = Ir.Seq_interp.run p env in
  Alcotest.(check (float 1e-9)) "cost = 3*(10 + 4*100)" 1230. cost;
  (* Each of the 12 iterations adds 1 somewhere in acc. *)
  let total = ref 0. in
  for i = 0 to 7 do
    total := !total +. Ir.Memory.get_float env.Ir.Env.mem "acc" i
  done;
  Alcotest.(check (float 1e-9)) "12 increments" 12. !total

let test_seq_deterministic () =
  let p, fresh = small_program () in
  let e1 = fresh () and e2 = fresh () in
  ignore (Ir.Seq_interp.run p e1);
  ignore (Ir.Seq_interp.run p e2);
  Alcotest.(check bool) "same final memory" true
    (Ir.Memory.equal e1.Ir.Env.mem e2.Ir.Env.mem)

let test_pdg_classification () =
  let p, _ = small_program () in
  let pdg = Ir.Pdg.build p in
  (* The irregular self-update carries a cross-iteration dependence. *)
  Alcotest.(check bool) "cross-iter self dep" true (Ir.Pdg.has_cross_iter pdg ~inner_idx:0);
  (* Pre reads nothing the body writes: no worker->scheduler edge. *)
  let part = Ir.Partition.compute p pdg in
  Alcotest.(check bool) "pipeline ok" true (Ir.Partition.pipeline_ok part pdg);
  Alcotest.(check int) "1 worker stmt" 1
    (List.length (Ir.Partition.worker_stmts part pdg));
  Alcotest.(check int) "1 scheduler stmt" 1
    (List.length (Ir.Partition.scheduler_stmts part pdg))

let test_partition_collapse_on_residual () =
  (* If the sequential region reads what the body writes, the body is pulled
     into the scheduler (the JACOBI/FDTD DOMORE-blocking pattern). *)
  let p, _ = small_program ~pre_reads:[ Ir.Access.make "acc" (E.ld "tgt" E.o) ] () in
  let pdg = Ir.Pdg.build p in
  let part = Ir.Partition.compute p pdg in
  Alcotest.(check int) "no worker stmts" 0
    (List.length (Ir.Partition.worker_stmts part pdg));
  match Ir.Mtcg.generate p (snd (small_program ()) ()) with
  | Ir.Mtcg.Inapplicable reason ->
      Alcotest.(check bool) "reported sequential" true
        (String.length reason > 0)
  | Ir.Mtcg.Plan _ -> Alcotest.fail "expected inapplicable"

let test_scc () =
  (* 0 -> 1 <-> 2, 3 isolated *)
  let g =
    {
      Ir.Scc.nodes = 4;
      succs = (function 0 -> [ 1 ] | 1 -> [ 2 ] | 2 -> [ 1 ] | _ -> []);
    }
  in
  let comps = Ir.Scc.topological g in
  let sorted = List.map (List.sort compare) comps in
  Alcotest.(check bool) "{1,2} is one SCC" true (List.mem [ 1; 2 ] sorted);
  Alcotest.(check int) "3 components" 3 (List.length comps);
  (* topological: 0 before {1,2} *)
  let pos x = ref (-1) |> fun r ->
    List.iteri (fun i c -> if List.mem x c then r := i) comps;
    !r
  in
  Alcotest.(check bool) "0 before 1" true (pos 0 < pos 1);
  let _, edges = Ir.Scc.condense g in
  Alcotest.(check int) "1 condensed edge" 1 (List.length edges)

let test_slice () =
  let p, fresh = small_program () in
  let env = fresh () in
  match Ir.Mtcg.generate p env with
  | Ir.Mtcg.Inapplicable r -> Alcotest.failf "unexpected: %s" r
  | Ir.Mtcg.Plan plan ->
      let slice = plan.Ir.Mtcg.slice in
      Alcotest.(check int) "two accesses (r+w)" 2 (List.length slice.Ir.Slice.accesses);
      Alcotest.(check (list string)) "index arrays" [ "tgt" ] slice.Ir.Slice.index_arrays;
      let env0 = Ir.Env.with_inner (Ir.Env.with_outer env 0) 1 in
      (* tgt[0*4+1] = 5; acc base is 12. *)
      let reads, writes = Ir.Slice.resolve slice env.Ir.Env.mem in
      let addrs = Array.map (Ir.Footprint.addr env0) in
      Alcotest.(check (array int)) "read addresses" [| 17 |] (addrs reads);
      Alcotest.(check (array int)) "write addresses" [| 17 |] (addrs writes);
      Alcotest.(check bool) "guard ratio sane" true (plan.Ir.Mtcg.guard_ratio < 0.9);
      let rendered = Ir.Mtcg.render plan in
      Alcotest.(check bool) "render mentions scheduler" true
        (String.length rendered > 0
        && Option.is_some (String.index_opt rendered 's'))

let test_slice_taint () =
  (* Figure 4.1: a body statement writes the index array another loop loads
     through -> slice rejected. *)
  let at = E.ld "tgt" E.i in
  let l1 =
    Ir.Stmt.make
      ~reads:[ Ir.Access.make "acc" at ]
      ~writes:[ Ir.Access.make "out" E.i ]
      ~cost:(Ir.Stmt.fixed_cost 50.) "l1"
  in
  let l2 =
    Ir.Stmt.make
      ~writes:[ Ir.Access.make "tgt" E.i ]
      ~cost:(Ir.Stmt.fixed_cost 50.) "l2"
  in
  let p =
    Ir.Program.make ~name:"taint" ~outer_trip:2
      [
        Ir.Program.inner ~label:"L1" ~trip:(Ir.Program.const_trip 4) [ l1 ];
        Ir.Program.inner ~label:"L2" ~trip:(Ir.Program.const_trip 4) [ l2 ];
      ]
  in
  let env =
    mk_env
      [
        Ir.Memory.Ints ("tgt", Array.make 8 0);
        Ir.Memory.Floats ("acc", Array.make 8 0.);
        Ir.Memory.Floats ("out", Array.make 8 0.);
      ]
  in
  match Ir.Mtcg.generate p env with
  | Ir.Mtcg.Inapplicable reason ->
      Alcotest.(check bool) "mentions tgt" true
        (Option.is_some
           (String.index_opt reason 't')
        && String.length reason > 10)
  | Ir.Mtcg.Plan _ -> Alcotest.fail "expected taint rejection"

let test_profile () =
  let p, fresh = small_program () in
  let env = fresh () in
  let res = Ir.Profile.run p env in
  Alcotest.(check int) "tasks" 12 res.Ir.Profile.total_tasks;
  Alcotest.(check int) "invocations" 3 res.Ir.Profile.total_invocations;
  (* tgt = (i*5) mod 8 over 12 slots: repeats across invocations. *)
  Alcotest.(check bool) "cross-invocation distance found" true
    (res.Ir.Profile.min_task_distance <> None)

let test_profile_manifest_rate () =
  (* Same cell written every outer iteration: the pair manifests in every
     outer iteration after the first. *)
  let body =
    Ir.Stmt.make
      ~writes:[ Ir.Access.make "acc" (E.c 0) ]
      ~exec:(fun env -> Ir.Memory.set_float env.Ir.Env.mem "acc" 0 1.)
      "w0"
  in
  let p =
    Ir.Program.make ~name:"m" ~outer_trip:5
      [ Ir.Program.inner ~label:"L" ~trip:(Ir.Program.const_trip 1) [ body ] ]
  in
  let env = mk_env [ Ir.Memory.Floats ("acc", Array.make 2 0.) ] in
  let res = Ir.Profile.run p env in
  let rate =
    Ir.Profile.manifest_rate res p ~src_sid:body.Ir.Stmt.sid ~dst_sid:body.Ir.Stmt.sid
  in
  Alcotest.(check (float 1e-9)) "100% manifest" 1.0 rate;
  Alcotest.(check (option int)) "distance 1" (Some 1) res.Ir.Profile.min_task_distance

let test_profile_deterministic () =
  let p, fresh = small_program () in
  let r1 = Ir.Profile.run p (fresh ()) and r2 = Ir.Profile.run p (fresh ()) in
  Alcotest.(check bool) "pair summaries identical" true
    (r1.Ir.Profile.pairs = r2.Ir.Profile.pairs);
  Alcotest.(check (option int)) "distances identical" r1.Ir.Profile.min_task_distance
    r2.Ir.Profile.min_task_distance

let test_footprint () =
  let p, fresh = small_program () in
  let env = Ir.Env.with_inner (Ir.Env.with_outer (fresh ()) 0) 1 in
  let il = Ir.Program.find_inner p "L" in
  let body = Ir.Footprint.touches env.Ir.Env.mem il.Ir.Program.body in
  let addrs f =
    List.concat_map (fun t -> Array.to_list (Array.map (Ir.Footprint.addr env) (f t)))
      (Array.to_list body)
  in
  (* acc read + tgt index load (once per access: read and write) *)
  Alcotest.(check (list int)) "reads" [ 17 ] (addrs (fun t -> t.Ir.Footprint.reads));
  Alcotest.(check (list int)) "loads" [ 1; 1 ] (addrs (fun t -> t.Ir.Footprint.loads));
  Alcotest.(check (list int)) "writes" [ 17 ] (addrs (fun t -> t.Ir.Footprint.writes));
  let fd = Ir.Footprint.feeder ~hot:(String.equal "acc") body in
  let hot = ref [] in
  Ir.Footprint.feed fd env (fun a -> hot := a :: !hot);
  Alcotest.(check (list int)) "filtered to acc" [ 17; 17 ] (List.rev !hot)

let test_opaque () =
  let p, fresh = small_program () in
  let wrapped = Ir.Opaque.wrap p in
  let env = Ir.Opaque.extend_env (fresh ()) ~size:32 in
  let env_ref = fresh () in
  ignore (Ir.Seq_interp.run p env_ref);
  ignore (Ir.Seq_interp.run wrapped env);
  (* Semantics unchanged on the shared arrays. *)
  List.iter
    (fun name ->
      for i = 0 to Ir.Memory.size env_ref.Ir.Env.mem name - 1 do
        Alcotest.(check (float 1e-9)) "same value"
          (Ir.Memory.get_float env_ref.Ir.Env.mem name i)
          (Ir.Memory.get_float env.Ir.Env.mem name i)
      done)
    [ "acc" ];
  (* Every body access became irregular. *)
  List.iter
    (fun (s : Ir.Stmt.t) ->
      List.iter
        (fun a -> Alcotest.(check bool) "irregular" true (Ir.Access.irregular a))
        (Ir.Stmt.accesses s))
    (Ir.Program.body_stmts wrapped)

let test_validate_catches_undeclared () =
  let good =
    Ir.Stmt.make
      ~writes:[ Ir.Access.make "a" E.i ]
      ~exec:(fun env -> Ir.Memory.set_float env.Ir.Env.mem "a" env.Ir.Env.j_inner 1.)
      "good"
  in
  let bad =
    Ir.Stmt.make
      ~writes:[ Ir.Access.make "a" E.i ]
      ~exec:(fun env ->
        (* Declared a[j], also touches a[j+1]: a footprint bug. *)
        Ir.Memory.set_float env.Ir.Env.mem "a" env.Ir.Env.j_inner 1.;
        Ir.Memory.set_float env.Ir.Env.mem "a" (env.Ir.Env.j_inner + 1) 2.)
      "bad"
  in
  let env = mk_env [ Ir.Memory.Floats ("a", Array.make 8 0.) ] in
  Alcotest.(check int) "good stmt clean" 0 (List.length (Ir.Validate.stmt env good));
  match Ir.Validate.stmt env bad with
  | [ v ] ->
      Alcotest.(check string) "culprit array" "a" v.Ir.Validate.arr;
      Alcotest.(check bool) "is a write" true v.Ir.Validate.write;
      Alcotest.(check int) "index" 1 v.Ir.Validate.idx
  | vs -> Alcotest.failf "expected 1 violation, got %d" (List.length vs)

let test_validate_program () =
  let p, fresh = small_program () in
  Alcotest.(check int) "small program footprints sound" 0
    (List.length (Ir.Validate.program p (fresh ())))

let test_forwarding_hazard () =
  (* A sequential-region statement rewriting the same scalar slot every
     outer iteration, feeding the bodies: the model cannot represent the
     queue value-forwarding the real MTCG would emit, so the plan is
     rejected. *)
  let pre =
    Ir.Stmt.make
      ~writes:[ Ir.Access.make "scal" (E.c 0) ]
      ~cost:(Ir.Stmt.fixed_cost 10.)
      ~exec:(fun env ->
        Ir.Memory.set_float env.Ir.Env.mem "scal" 0 (float_of_int env.Ir.Env.t_outer))
      "scal=f(t)"
  in
  let body =
    Ir.Stmt.make
      ~reads:[ Ir.Access.make "scal" (E.c 0) ]
      ~writes:[ Ir.Access.make "out" E.i ]
      ~cost:(Ir.Stmt.fixed_cost 200.)
      ~exec:(fun env ->
        Ir.Memory.set_float env.Ir.Env.mem "out" env.Ir.Env.j_inner
          (Ir.Memory.get_float env.Ir.Env.mem "scal" 0))
      "out[i]=scal"
  in
  let p =
    Ir.Program.make ~name:"fwd" ~outer_trip:3
      [ Ir.Program.inner ~pre:[ pre ] ~label:"L" ~trip:(Ir.Program.const_trip 4) [ body ] ]
  in
  let env =
    mk_env
      [ Ir.Memory.Floats ("scal", [| 0. |]); Ir.Memory.Floats ("out", Array.make 4 0.) ]
  in
  (match Ir.Mtcg.generate p env with
  | Ir.Mtcg.Inapplicable reason ->
      Alcotest.(check string) "forwarding rejected"
        "scheduler-to-worker value forwarding not representable" reason
  | Ir.Mtcg.Plan _ -> Alcotest.fail "expected rejection");
  (* Per-invocation slots are fine: the scheduler may run ahead. *)
  let pre_ok =
    Ir.Stmt.make
      ~writes:[ Ir.Access.make "slots" E.o ]
      ~cost:(Ir.Stmt.fixed_cost 10.)
      ~exec:(fun env ->
        Ir.Memory.set_float env.Ir.Env.mem "slots" env.Ir.Env.t_outer 1.)
      "slots[t]=f(t)"
  in
  let body_ok =
    Ir.Stmt.make
      ~reads:[ Ir.Access.make "slots" E.o ]
      ~writes:[ Ir.Access.make "out" E.i ]
      ~cost:(Ir.Stmt.fixed_cost 200.)
      ~exec:(fun env ->
        Ir.Memory.set_float env.Ir.Env.mem "out" env.Ir.Env.j_inner
          (Ir.Memory.get_float env.Ir.Env.mem "slots" env.Ir.Env.t_outer))
      "out[i]=slots[t]"
  in
  let p2 =
    Ir.Program.make ~name:"fwd2" ~outer_trip:3
      [
        Ir.Program.inner ~pre:[ pre_ok ] ~label:"L"
          ~trip:(Ir.Program.const_trip 4) [ body_ok ];
      ]
  in
  let env2 =
    mk_env
      [ Ir.Memory.Floats ("slots", Array.make 3 0.); Ir.Memory.Floats ("out", Array.make 4 0.) ]
  in
  match Ir.Mtcg.generate p2 env2 with
  | Ir.Mtcg.Plan _ -> ()
  | Ir.Mtcg.Inapplicable r -> Alcotest.failf "per-invocation slots rejected: %s" r

let test_error_contracts () =
  let env = mk_env [ Ir.Memory.Ints ("x", [| 1 |]); Ir.Memory.Floats ("f", [| 1. |]) ] in
  Alcotest.check_raises "unknown array"
    (Invalid_argument "Memory: unknown array nope") (fun () ->
      ignore (Ir.Memory.get_int env.Ir.Env.mem "nope" 0));
  Alcotest.check_raises "type mismatch"
    (Invalid_argument "Memory.get_int: f is a float array") (fun () ->
      ignore (Ir.Memory.get_int env.Ir.Env.mem "f" 0));
  let eval env e = E.compile env.Ir.Env.mem e env in
  Alcotest.check_raises "unknown param"
    (Invalid_argument "Env.param: unknown parameter n") (fun () ->
      ignore (eval env (E.Param "n")));
  Alcotest.check_raises "division by zero"
    (Invalid_argument "Expr.eval: division by zero") (fun () ->
      ignore (eval env (E.Bin (E.Div, E.c 1, E.c 0))));
  let p, _ = small_program () in
  Alcotest.check_raises "unknown inner"
    (Invalid_argument "Program.find_inner: no inner loop Z") (fun () ->
      ignore (Ir.Program.find_inner p "Z"));
  let env2 = Ir.Env.make ~params:[ ("n", 7) ] env.Ir.Env.mem in
  Alcotest.(check int) "param lookup" 7 (eval env2 (E.Param "n"));
  Alcotest.check_raises "modulo by zero"
    (Invalid_argument "Expr.eval: modulo by zero") (fun () ->
      ignore (eval env (E.Bin (E.Mod, E.c 1, E.c 0))));
  Alcotest.check_raises "load out of range" (Invalid_argument "index out of bounds")
    (fun () -> ignore (eval env (E.ld "x" (E.c 1))));
  Alcotest.check_raises "right operand first"
    (Invalid_argument "Expr.eval: division by zero") (fun () ->
      ignore (eval env E.(Bin (Add, Param "n", Bin (Div, c 1, c 0)))));
  Alcotest.check_raises "array resolved at compile time"
    (Invalid_argument "Memory.int_data: f is a float array") (fun () ->
      ignore (E.compile env.Ir.Env.mem (E.ld "f" E.i) : Ir.Env.t -> int))

let test_slice_for_contract () =
  let p, fresh = small_program () in
  match Ir.Mtcg.generate p (fresh ()) with
  | Ir.Mtcg.Inapplicable r -> Alcotest.failf "inapplicable: %s" r
  | Ir.Mtcg.Plan plan ->
      Alcotest.(check int) "one per-inner slice" 1 (List.length plan.Ir.Mtcg.slices);
      let s = Ir.Mtcg.slice_for plan "L" in
      Alcotest.(check int) "inner slice covers body accesses" 2
        (List.length s.Ir.Slice.accesses);
      Alcotest.check_raises "unknown label"
        (Invalid_argument "Mtcg.slice_for: unknown inner nope") (fun () ->
          ignore (Ir.Mtcg.slice_for plan "nope"))

let test_dot_export () =
  let p, _ = small_program () in
  let pdg = Ir.Pdg.build p in
  let part = Ir.Partition.compute p pdg in
  let dot = Ir.Dot.pdg ~partition:part pdg in
  Alcotest.(check bool) "digraph header" true
    (String.length dot > 16 && String.sub dot 0 7 = "digraph");
  Alcotest.(check bool) "scheduler drawn as box" true
    (let rec contains i =
       i + 9 <= String.length dot
       && (String.sub dot i 9 = "shape=box" || contains (i + 1))
     in
     contains 0);
  let dag = Ir.Dot.dag_scc pdg in
  Alcotest.(check bool) "dag-scc renders" true (String.length dag > 16)

(* Random affine expressions: the symbolic normal form must agree with
   direct evaluation at random iteration points. *)
let affine_expr_gen =
  let open QCheck.Gen in
  let leaf = oneof [ return E.i; return E.o; map E.c (int_range (-20) 20) ] in
  let rec go n =
    if n = 0 then leaf
    else
      frequency
        [
          (2, leaf);
          ( 3,
            map2
              (fun op (a, b) -> E.Bin (op, a, b))
              (oneofl [ E.Add; E.Sub ])
              (pair (go (n - 1)) (go (n - 1))) );
          (1, map2 (fun k e -> E.(c k * e)) (int_range (-5) 5) (go (n - 1)));
        ]
  in
  go 4

let prop_affine_agrees_with_eval =
  QCheck.Test.make ~name:"affine form agrees with evaluation" ~count:300
    (QCheck.make affine_expr_gen)
    (fun e ->
      match Ir.Affine.of_expr e with
      | None -> false (* this generator only builds affine expressions *)
      | Some { Ir.Affine.ci; co; k } ->
          List.for_all
            (fun (t, j) ->
              let env =
                Ir.Env.with_outer
                  (Ir.Env.with_inner (mk_env []) j)
                  t
              in
              E.compile env.Ir.Env.mem e env = (ci * j) + (co * t) + k)
            [ (0, 0); (3, 5); (7, 2); (11, 13) ])

let prop_snapshot_roundtrip =
  QCheck.Test.make ~name:"memory snapshot/restore round-trips" ~count:100
    QCheck.(pair (list (pair (int_range 0 15) (int_range (-100) 100))) small_int)
    (fun (mutations, _) ->
      let m =
        Ir.Memory.create
          [
            Ir.Memory.Ints ("a", Array.init 16 Fun.id);
            Ir.Memory.Floats ("b", Array.make 16 1.);
          ]
      in
      let snap = Ir.Memory.snapshot m in
      List.iter (fun (i, v) -> Ir.Memory.set_int m "a" i v) mutations;
      List.iter
        (fun (i, v) -> Ir.Memory.set_float m "b" i (float_of_int v))
        mutations;
      Ir.Memory.restore ~dst:m ~src:snap;
      Ir.Memory.equal m snap)

(* A frozen copy diffs like the memory it was taken from, NaN included. *)
let prop_frozen_diff =
  QCheck.Test.make ~name:"frozen memory diffs like a snapshot" ~count:100
    QCheck.(list (pair (int_range 0 15) (int_range (-3) 3)))
    (fun mutations ->
      let m =
        Ir.Memory.create
          [
            Ir.Memory.Ints ("a", Array.init 16 Fun.id);
            Ir.Memory.Floats ("b", Array.init 16 (fun i -> if i = 5 then Float.nan else 1.));
          ]
      in
      let snap = Ir.Memory.snapshot m and frozen = Ir.Memory.freeze m in
      List.iter
        (fun (i, v) ->
          Ir.Memory.set_int m "a" i v;
          Ir.Memory.set_float m "b" i (float_of_int v))
        mutations;
      Ir.Memory.diff_frozen frozen m = Ir.Memory.diff snap m)

(* The sequential interpreter and the profiler must compute identical final
   states (the profiler only observes). *)
let prop_profiler_transparent =
  QCheck.Test.make ~name:"profiler does not perturb execution" ~count:50
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let p, fresh =
        Xinv_workloads.Synth.make
          { Xinv_workloads.Synth.default with Xinv_workloads.Synth.seed; outer = 4 }
      in
      let e1 = fresh () and e2 = fresh () in
      ignore (Ir.Seq_interp.run p e1);
      ignore (Ir.Profile.run p e2);
      Ir.Memory.equal e1.Ir.Env.mem e2.Ir.Env.mem)

(* Random synthetic loop nests, from conflict-free to one-cell: the flat
   profiler and the hash-table reference find the same summaries. *)
let prop_profile_matches_reference =
  let module Sy = Xinv_workloads.Synth in
  let spec =
    QCheck.Gen.(
      map
        (fun (outer, inners, trip, extra, within_safe, seed) ->
          let cells = if within_safe then trip + extra else 1 + extra in
          { Sy.default with Sy.outer; inners; trip; cells; within_safe; seed })
        (tup6 (int_range 1 6) (int_range 1 3) (int_range 1 10) (int_range 0 12) bool
           (int_range 0 1_000_000)))
  in
  let print (s : Sy.spec) =
    Printf.sprintf "outer %d inners %d trip %d cells %d within_safe %b seed %d" s.Sy.outer
      s.Sy.inners s.Sy.trip s.Sy.cells s.Sy.within_safe s.Sy.seed
  in
  QCheck.Test.make ~name:"profile = reference profiler" ~count:300 (QCheck.make ~print spec)
    (fun spec ->
      let p, fresh = Sy.make spec in
      Ir.Profile.run p (fresh ()) = Ref_profile.run p (fresh ()))

(* Random index expressions over every node kind, evaluated in random
   int memories and iterations: nested and out-of-range loads, division
   and modulo by zero, and an unknown parameter ("m") all occur. *)
let prop_compile_matches_reference =
  let open QCheck.Gen in
  let leaf =
    frequency
      [ (3, return E.i); (3, return E.o); (4, map E.c (int_range (-4) 9));
        (1, return (E.Param "n")); (1, return (E.Param "m")) ]
  in
  let rec expr n =
    if n = 0 then leaf
    else
      frequency
        [
          (2, leaf);
          ( 3,
            map3
              (fun op x y -> E.Bin (op, x, y))
              (oneofl E.[ Add; Sub; Mul; Div; Mod; Min; Max ])
              (expr (n - 1)) (expr (n - 1)) );
          (2, map2 (fun a ix -> E.Load (a, ix)) (oneofl [ "a"; "b" ]) (expr (n - 1)));
        ]
  in
  let ints = array_size (int_range 1 6) (int_range (-2) 7) in
  let case = quad (expr 4) (pair ints ints) (int_range (-1) 6) (int_range (-1) 6) in
  let print (e, _, t, j) = Printf.sprintf "%s at t=%d, j=%d" (E.to_string e) t j in
  QCheck.Test.make ~name:"compiled index = reference interpreter" ~count:1000
    (QCheck.make ~print case)
    (fun (e, (a, b), t, j) ->
      let mem = Ir.Memory.create [ Ir.Memory.Ints ("a", a); Ir.Memory.Ints ("b", b) ] in
      let env =
        Ir.Env.with_outer (Ir.Env.with_inner (Ir.Env.make ~params:[ ("n", 3) ] mem) j) t
      in
      let run f = match f () with v -> Ok v | exception Invalid_argument m -> Error m in
      run (fun () -> E.compile mem e env) = run (fun () -> Ref_expr.eval env e))

let test_stmt_ids_domains () =
  let make () = List.init 10_000 (fun _ -> (Ir.Stmt.make "s").Ir.Stmt.sid) in
  let other = Domain.spawn make in
  let mine = make () in
  let ids = mine @ Domain.join other in
  Alcotest.(check int) "every sid distinct" 20_000 (List.length (List.sort_uniq compare ids))

let prop_stmt_ids_unique =
  QCheck.Test.make ~name:"stmt ids unique" ~count:20 QCheck.small_int (fun _ ->
      let a = Ir.Stmt.make "a" and b = Ir.Stmt.make "b" in
      a.Ir.Stmt.sid <> b.Ir.Stmt.sid)

let suite =
  [
    Alcotest.test_case "expr eval" `Quick test_expr_eval;
    Alcotest.test_case "expr helpers" `Quick test_expr_helpers;
    Alcotest.test_case "affine extraction" `Quick test_affine;
    Alcotest.test_case "affine overlap" `Quick test_affine_overlap;
    Alcotest.test_case "access conflicts" `Quick test_access;
    Alcotest.test_case "memory" `Quick test_memory;
    Alcotest.test_case "program shape" `Quick test_program_shape;
    Alcotest.test_case "seq interp" `Quick test_seq_interp;
    Alcotest.test_case "seq deterministic" `Quick test_seq_deterministic;
    Alcotest.test_case "pdg classification" `Quick test_pdg_classification;
    Alcotest.test_case "partition collapse" `Quick test_partition_collapse_on_residual;
    Alcotest.test_case "scc" `Quick test_scc;
    Alcotest.test_case "slice" `Quick test_slice;
    Alcotest.test_case "slice taint (fig 4.1)" `Quick test_slice_taint;
    Alcotest.test_case "profile" `Quick test_profile;
    Alcotest.test_case "profile manifest rate" `Quick test_profile_manifest_rate;
    Alcotest.test_case "profile deterministic" `Quick test_profile_deterministic;
    Alcotest.test_case "footprint" `Quick test_footprint;
    Alcotest.test_case "opaque wrapper" `Quick test_opaque;
    Alcotest.test_case "validate catches undeclared" `Quick test_validate_catches_undeclared;
    Alcotest.test_case "validate program" `Quick test_validate_program;
    Alcotest.test_case "dot export" `Quick test_dot_export;
    Alcotest.test_case "forwarding hazard" `Quick test_forwarding_hazard;
    Alcotest.test_case "error contracts" `Quick test_error_contracts;
    Alcotest.test_case "per-inner slices" `Quick test_slice_for_contract;
    Alcotest.test_case "stmt ids unique across domains" `Quick test_stmt_ids_domains;
    QCheck_alcotest.to_alcotest prop_affine_agrees_with_eval;
    QCheck_alcotest.to_alcotest prop_compile_matches_reference;
    QCheck_alcotest.to_alcotest prop_snapshot_roundtrip;
    QCheck_alcotest.to_alcotest prop_profiler_transparent;
    QCheck_alcotest.to_alcotest prop_profile_matches_reference;
    QCheck_alcotest.to_alcotest prop_stmt_ids_unique;
    QCheck_alcotest.to_alcotest prop_frozen_diff;
  ]
