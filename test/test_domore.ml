(* Tests for the DOMORE runtime engine: correctness under arbitrary dynamic
   dependence patterns, scheduling policies, the duplicated-scheduler
   variant, accounting. *)

module Ir = Xinv_ir
module Par = Xinv_parallel
module Dm = Xinv_domore
module Wl = Xinv_workloads

let synth ?(seed = 1) ?(cells = 12) ?(outer = 5) ?(trip = 9) ?(inners = 2) () =
  Wl.Synth.make
    {
      Wl.Synth.default with
      Wl.Synth.seed;
      cells;
      outer;
      trip;
      inners;
      within_safe = true;
    }

let run_domore ?(workers = 3) ?(policy = Dm.Policy.Round_robin) (p, fresh) =
  let seq_env = fresh () in
  let seq_cost = Ir.Seq_interp.run p seq_env in
  let env = fresh () in
  match Ir.Mtcg.generate p env with
  | Ir.Mtcg.Inapplicable r -> Alcotest.failf "unexpectedly inapplicable: %s" r
  | Ir.Mtcg.Plan plan ->
      let config = { (Dm.Domore.default_config ~workers) with Dm.Domore.policy } in
      let r = Dm.Domore.run ~config ~plan p env in
      (seq_env, env, seq_cost, r)

let check_equal name seq_env env =
  Alcotest.(check int)
    (name ^ ": matches sequential")
    0
    (List.length (Ir.Memory.diff seq_env.Ir.Env.mem env.Ir.Env.mem))

let test_domore_correct_round_robin () =
  List.iter
    (fun workers ->
      let seq_env, env, _, _ = run_domore ~workers (synth ~seed:3 ()) in
      check_equal (Printf.sprintf "rr@%d" workers) seq_env env)
    [ 1; 2; 3; 7 ]

let test_domore_correct_mem_partition () =
  let seq_env, env, _, _ =
    run_domore ~workers:4 ~policy:Dm.Policy.Mem_partition (synth ~seed:4 ())
  in
  check_equal "mem-partition" seq_env env

let test_domore_correct_least_loaded () =
  let seq_env, env, _, _ =
    run_domore ~workers:4 ~policy:Dm.Policy.Least_loaded (synth ~seed:6 ~cells:10 ())
  in
  check_equal "least-loaded" seq_env env

let test_domore_sync_conditions_emitted () =
  (* cells=6 over 90 tasks: conflicts are guaranteed; the scheduler must
     emit Wait conditions and execution must stay exact. *)
  let seq_env, env, _, r = run_domore ~workers:3 (synth ~seed:7 ~cells:9 ()) in
  check_equal "conflict-heavy" seq_env env;
  Alcotest.(check bool) "sync conditions emitted" true (r.Par.Run.checks > 0)

let test_domore_no_sync_when_disjoint () =
  (* Large cell space, distinct targets per invocation AND globally unique
     across the region: no Wait conditions at all. *)
  let p, fresh =
    Wl.Synth.make
      {
        Wl.Synth.default with
        Wl.Synth.seed = 13;
        cells = 2 * 5 * 9 * 2;
        outer = 5;
        trip = 9;
        inners = 2;
      }
  in
  (* Replace targets with globally distinct cells. *)
  let env = fresh () in
  let n = Ir.Memory.size env.Ir.Env.mem "tgt" in
  for i = 0 to n - 1 do
    Ir.Memory.set_int env.Ir.Env.mem "tgt" i i
  done;
  let seq_env = fresh () in
  for i = 0 to n - 1 do
    Ir.Memory.set_int seq_env.Ir.Env.mem "tgt" i i
  done;
  ignore (Ir.Seq_interp.run p seq_env);
  match Ir.Mtcg.generate p env with
  | Ir.Mtcg.Inapplicable r -> Alcotest.failf "inapplicable: %s" r
  | Ir.Mtcg.Plan plan ->
      let r = Dm.Domore.run ~config:(Dm.Domore.default_config ~workers:3) ~plan p env in
      check_equal "disjoint" seq_env env;
      Alcotest.(check int) "no sync conditions" 0 r.Par.Run.checks

let test_domore_scheduler_is_thread0 () =
  let _, _, _, r = run_domore ~workers:3 (synth ()) in
  let eng = r.Par.Run.engine in
  Alcotest.(check string) "thread 0 named scheduler" "scheduler"
    (Xinv_sim.Engine.name_of eng 0);
  Alcotest.(check bool) "scheduler did runtime work" true
    (Xinv_sim.Engine.charged eng 0 Xinv_sim.Category.Runtime > 0.);
  Alcotest.(check bool) "scheduler never does Work" true
    (Xinv_sim.Engine.charged eng 0 Xinv_sim.Category.Work = 0.);
  let ratio = Dm.Domore.scheduler_worker_ratio r in
  Alcotest.(check bool) "ratio positive and below 1" true (ratio > 0. && ratio < 1.)

let test_domore_outperforms_barrier_on_cg_pattern () =
  (* Many short invocations: barriers collapse, DOMORE overlaps. *)
  let p, fresh = synth ~outer:30 ~trip:5 ~inners:1 ~cells:200 ~seed:21 () in
  let seq_cost = Ir.Seq_interp.run p (fresh ()) in
  let env_b = fresh () in
  let rb = Par.Barrier_exec.run ~threads:8 ~plan:(fun _ -> Par.Intra.Doall) p env_b in
  let _, _, _, rd = run_domore ~workers:7 (p, fresh) in
  Alcotest.(check bool) "domore faster than barrier" true
    (Par.Run.speedup ~seq_cost rd > Par.Run.speedup ~seq_cost rb)

let test_duplicated_correct () =
  List.iter
    (fun workers ->
      let p, fresh = synth ~seed:31 ~cells:10 () in
      let seq_env = fresh () in
      ignore (Ir.Seq_interp.run p seq_env);
      let env = fresh () in
      match Ir.Mtcg.generate p env with
      | Ir.Mtcg.Inapplicable r -> Alcotest.failf "inapplicable: %s" r
      | Ir.Mtcg.Plan plan ->
          let config = Dm.Domore.default_config ~workers in
          ignore (Dm.Domore.run_duplicated ~config ~plan p env);
          check_equal (Printf.sprintf "dup@%d" workers) seq_env env)
    [ 1; 2; 4 ]

let test_duplicated_redundant_scheduling () =
  let p, fresh = synth ~seed:33 () in
  let env = fresh () in
  match Ir.Mtcg.generate p env with
  | Ir.Mtcg.Inapplicable r -> Alcotest.failf "inapplicable: %s" r
  | Ir.Mtcg.Plan plan ->
      let r = Dm.Domore.run_duplicated ~config:(Dm.Domore.default_config ~workers:3) ~plan p env in
      Alcotest.(check bool) "redundant scheduling charged" true
        (Par.Run.category_total r Xinv_sim.Category.Redundant > 0.)

(* [d] sits at flat base 4, so an owner computed from flat addresses
   instead of the array's own index lands on the wrong block. *)
let test_policy () =
  let env =
    Ir.Env.make
      (Ir.Memory.create
         [ Ir.Memory.Ints ("x", Array.make 4 0); Ir.Memory.Floats ("d", Array.make 100 0.) ])
  in
  let writes accs = Ir.Footprint.sites env.Ir.Env.mem accs in
  let at arr i = Ir.Access.make arr (Ir.Expr.c i) in
  let assign ?loads policy writes ~threads ~slot =
    Dm.Policy.assign policy ~reads:[||] ~writes
      (Xinv_runtime.Shadow.create ~words:(Ir.Memory.total_words env.Ir.Env.mem) ~workers:threads)
      (Xinv_runtime.Shadow.Deps.create ()) ~loads ~threads ~iter:0 ~slot env
  in
  Alcotest.(check int) "round robin" 2
    (assign Dm.Policy.Round_robin (writes [ at "d" 50 ]) ~threads:3 ~slot:5);
  List.iter
    (fun (i, threads) ->
      Alcotest.(check int)
        (Printf.sprintf "mem partition: d[%d] of 100 at %d threads" i threads)
        (i * threads / 100)
        (assign Dm.Policy.Mem_partition (writes [ at "d" i ]) ~threads ~slot:7))
    [ (0, 4); (24, 4); (25, 4); (75, 4); (99, 4); (32, 3); (33, 3); (97, 3) ];
  Alcotest.(check int) "mem partition: the first write decides" 0
    (assign Dm.Policy.Mem_partition (writes [ at "d" 10; at "x" 3 ]) ~threads:4 ~slot:1);
  Alcotest.(check int) "fallback without writes" 1
    (assign Dm.Policy.Mem_partition (writes []) ~threads:4 ~slot:5);
  Alcotest.(check int) "least loaded picks shortest queue" 1
    (assign ~loads:[| 4; 0; 2 |] Dm.Policy.Least_loaded (writes [ at "d" 50 ]) ~threads:3
       ~slot:0);
  Alcotest.(check int) "least loaded without loads falls back" 2
    (assign Dm.Policy.Least_loaded (writes []) ~threads:3 ~slot:5)

(* A reference for [Policy.assign]: owners picked from [Ref_expr]
   addresses and [Memory] lookups, dependences from the naive [Ref_shadow].
   Every DOMORE workload runs sequentially at train input, and each
   iteration is scheduled both ways before it executes. *)
let test_policy_matches_reference () =
  let module Sh = Xinv_runtime.Shadow in
  let ref_owner policy (slice : Ir.Slice.t) ~loads ~threads ~slot env =
    match (policy, slice.Ir.Slice.writes) with
    | Dm.Policy.Mem_partition, (a : Ir.Access.t) :: _ ->
        Ref_expr.eval env a.Ir.Access.index * threads
        / Ir.Memory.size env.Ir.Env.mem a.Ir.Access.base
    | Dm.Policy.Least_loaded, _ ->
        let best = ref (slot mod threads) in
        Array.iteri (fun w l -> if l < loads.(!best) then best := w) loads;
        !best
    | _ -> slot mod threads
  in
  let schedule (wl : Wl.Workload.t) policy threads =
    let p = wl.Wl.Workload.program Wl.Workload.Train in
    let env = wl.Wl.Workload.fresh_env Wl.Workload.Train in
    let plan =
      match Ir.Mtcg.generate p env with
      | Ir.Mtcg.Plan plan -> plan
      | Ir.Mtcg.Inapplicable r -> Alcotest.failf "%s: %s" wl.Wl.Workload.name r
    in
    let mem = env.Ir.Env.mem in
    let sites = Ir.Mtcg.sites_for plan mem in
    let sh = Sh.create ~words:(Ir.Memory.total_words mem) ~workers:threads in
    let deps = Sh.Deps.create () and rf = Ref_shadow.create () in
    let loads = Array.make threads 0 in
    let got = ref [] and want = ref [] and iter = ref 0 in
    for t = 0 to p.Ir.Program.outer_trip - 1 do
      let env_t = Ir.Env.with_outer env t in
      List.iter
        (fun (il : Ir.Program.inner) ->
          List.iter (fun (s : Ir.Stmt.t) -> s.Ir.Stmt.exec env_t) il.Ir.Program.pre;
          let slice = Ir.Mtcg.slice_for plan il.Ir.Program.ilabel in
          let reads, writes = sites il.Ir.Program.ilabel in
          for j = 0 to il.Ir.Program.trip env_t - 1 do
            let env_j = Ir.Env.with_inner env_t j and i = !iter in
            Array.iteri (fun w _ -> loads.(w) <- ((i * 7) + (w * 13)) mod 5) loads;
            let tid =
              Dm.Policy.assign policy ~reads ~writes sh deps ~loads:(Some loads) ~threads
                ~iter:i ~slot:i env_j
            in
            got := (tid, Sh.Deps.to_list deps) :: !got;
            let tid = ref_owner policy slice ~loads ~threads ~slot:i env_j in
            let addrs = List.map (Ref_expr.addr env_j mem) in
            let on_reads =
              List.concat_map
                (fun a -> Ref_shadow.note_read rf a ~tid ~iter:i)
                (addrs slice.Ir.Slice.reads)
            in
            let on_writes =
              List.concat_map
                (fun a -> Ref_shadow.note_write rf a ~tid ~iter:i)
                (addrs slice.Ir.Slice.writes)
            in
            want := (tid, Ref_shadow.dedup (on_reads @ on_writes)) :: !want;
            List.iter (fun (s : Ir.Stmt.t) -> s.Ir.Stmt.exec env_j) il.Ir.Program.body;
            incr iter
          done)
        p.Ir.Program.inners
    done;
    Alcotest.(check (list (pair int (list (pair int int)))))
      (Printf.sprintf "%s %s @%d" wl.Wl.Workload.name (Dm.Policy.name policy) threads)
      (List.rev !want) (List.rev !got)
  in
  List.iter
    (fun wl ->
      List.iter
        (fun policy -> List.iter (schedule wl policy) [ 1; 2; 8 ])
        Dm.Policy.[ Round_robin; Mem_partition; Least_loaded ])
    (Wl.Registry.domore_set ())

let test_domore_run_deterministic () =
  let run () =
    let _, _, _, r = run_domore ~workers:3 (synth ~seed:41 ~cells:10 ()) in
    r.Par.Run.makespan
  in
  Alcotest.(check (float 1e-9)) "same makespan across runs" (run ()) (run ())

(* Property: DOMORE preserves sequential semantics on random conflict-dense
   programs at random worker counts, under both policies. *)
let prop_domore_correct =
  QCheck.Test.make ~name:"DOMORE exact on random dependence patterns" ~count:30
    QCheck.(triple (int_range 1 10_000) (int_range 1 6) bool)
    (fun (seed, workers, mem_partition) ->
      let p, fresh =
        Wl.Synth.make
          {
            Wl.Synth.default with
            Wl.Synth.seed;
            cells = 14;
            outer = 4;
            trip = 8;
            inners = 2;
          }
      in
      let seq_env = fresh () in
      ignore (Ir.Seq_interp.run p seq_env);
      let env = fresh () in
      match Ir.Mtcg.generate p env with
      | Ir.Mtcg.Inapplicable _ -> false
      | Ir.Mtcg.Plan plan ->
          let policy =
            if mem_partition then Dm.Policy.Mem_partition else Dm.Policy.Round_robin
          in
          let config = { (Dm.Domore.default_config ~workers) with Dm.Domore.policy } in
          ignore (Dm.Domore.run ~config ~plan p env);
          Ir.Memory.equal seq_env.Ir.Env.mem env.Ir.Env.mem)

let prop_duplicated_equals_domore_semantics =
  QCheck.Test.make ~name:"duplicated scheduler produces identical state" ~count:15
    QCheck.(pair (int_range 1 10_000) (int_range 1 5))
    (fun (seed, workers) ->
      let p, fresh =
        Wl.Synth.make
          { Wl.Synth.default with Wl.Synth.seed; cells = 14; outer = 3; trip = 6 }
      in
      let env1 = fresh () and env2 = fresh () in
      match Ir.Mtcg.generate p env1 with
      | Ir.Mtcg.Inapplicable _ -> false
      | Ir.Mtcg.Plan plan ->
          let config = Dm.Domore.default_config ~workers in
          ignore (Dm.Domore.run ~config ~plan p env1);
          ignore (Dm.Domore.run_duplicated ~config ~plan p env2);
          Ir.Memory.equal env1.Ir.Env.mem env2.Ir.Env.mem)

(* A machine that runs only the scheduler and logs each message with its
   queue and the scheduling step (iteration) it was sent in. *)
module Log = struct
  type t = {
    mutable step : int;
    mutable sent : (int * int * Dm.Protocol.msg) list;  (* newest first *)
    lengths : int array;
  }

  let queue_length m w = m.lengths.(w)

  let send m w msg =
    m.sent <- (m.step, w, msg) :: m.sent;
    m.lengths.(w) <- m.lengths.(w) + 1

  let recv _ _ = assert false
  let flush _ = ()
  let frontier _ _ = assert false
  let publish _ _ _ = assert false
  let await _ ~self:_ _ _ = assert false

  let exec _ role env (s : Ir.Stmt.t) =
    assert (role <> Dm.Protocol.Body);
    s.Ir.Stmt.exec env

  let schedule m _ = m.step <- m.step + 1
  let shadow _ _ = ()
  let self_conds _ _ = ()
  let record _ ~domain:_ _ ~a:_ ~b:_ = ()
  let fault _ _ ~domain:_ ~site:_ = false
  let run _ fns = fns.(0) ()
end

module Log_engine = Dm.Protocol.Make (Log)

let prop_frame_stream =
  QCheck.Test.make
    ~name:"DOMORE frame stream: ordered partition, grain-bounded, conditions first"
    ~count:60
    QCheck.(
      quad (int_range 1 10_000) (oneofl [ 1; 2; 3; 4 ]) (oneofl [ 1; 2; 3; 8 ])
        (oneofl Dm.Policy.[ Round_robin; Mem_partition; Least_loaded ]))
    (fun (seed, workers, grain, policy) ->
      let p, fresh =
        Wl.Synth.make
          { Wl.Synth.default with Wl.Synth.seed; cells = 14; outer = 4; trip = 8; inners = 2 }
      in
      let env = fresh () in
      match Ir.Mtcg.generate p env with
      | Ir.Mtcg.Inapplicable _ -> false
      | Ir.Mtcg.Plan plan ->
          let m = { Log.step = -1; sent = []; lengths = Array.make workers 0 } in
          let c = Log_engine.centralized m ~policy ~workers ~grain ~plan p env in
          let sent = Array.of_list (List.rev m.Log.sent) in
          (* Where each iteration's frame went: (message index, queue). *)
          let frame_of = Array.make c.Dm.Protocol.tasks None in
          let next = ref 0 and ok = ref true in
          Array.iteri
            (fun i (step, w, msg) ->
              match msg with
              | Dm.Protocol.Frame { len; iter; _ } ->
                  if iter <> !next || len < 1 || len > grain then ok := false;
                  if len = grain && step <> iter + len - 1 then ok := false;
                  for k = iter to iter + len - 1 do
                    frame_of.(k) <- Some (i, w)
                  done;
                  next := iter + len
              | Dm.Protocol.Sync_cond _ -> ())
            sent;
          !ok
          && !next = c.Dm.Protocol.tasks
          && Array.for_all Option.is_some frame_of
          && Array.for_all Fun.id
               (Array.mapi
                  (fun i (step, w, msg) ->
                    match msg with
                    | Dm.Protocol.Sync_cond word -> (
                        match Xinv_runtime.Sync_cond.of_int word with
                        | Xinv_runtime.Sync_cond.Wait _ -> (
                            match frame_of.(step) with
                            | Some (fi, fw) -> fw = w && fi > i
                            | None -> false)
                        | _ -> true)
                    | Dm.Protocol.Frame _ -> true)
                  sent))

let suite =
  [
    Alcotest.test_case "correct (round robin)" `Quick test_domore_correct_round_robin;
    Alcotest.test_case "correct (mem partition)" `Quick test_domore_correct_mem_partition;
    Alcotest.test_case "correct (least loaded)" `Quick test_domore_correct_least_loaded;
    Alcotest.test_case "sync conditions emitted" `Quick test_domore_sync_conditions_emitted;
    Alcotest.test_case "no sync when disjoint" `Quick test_domore_no_sync_when_disjoint;
    Alcotest.test_case "scheduler thread accounting" `Quick test_domore_scheduler_is_thread0;
    Alcotest.test_case "beats barriers on CG pattern" `Quick
      test_domore_outperforms_barrier_on_cg_pattern;
    Alcotest.test_case "duplicated variant correct" `Quick test_duplicated_correct;
    Alcotest.test_case "duplicated redundancy" `Quick test_duplicated_redundant_scheduling;
    Alcotest.test_case "scheduling policies" `Quick test_policy;
    Alcotest.test_case "schedules match the reference scheduler" `Quick
      test_policy_matches_reference;
    Alcotest.test_case "run deterministic" `Quick test_domore_run_deterministic;
    QCheck_alcotest.to_alcotest prop_domore_correct;
    QCheck_alcotest.to_alcotest prop_duplicated_equals_domore_semantics;
    QCheck_alcotest.to_alcotest prop_frame_stream;
  ]
