module Ir = Xinv_ir
module E = Xinv_ir.Expr

(* MineBench ECLAT, function process_inverti: the outer loop walks a graph
   of item nodes; the inner loop appends each node's items to per-transaction
   lists in a vertical database.  Items within one node map to distinct
   transactions (inner loop conflict-free at runtime), but nearly every node
   shares transactions with earlier nodes — the frequent cross-invocation
   dependence that makes ECLAT the DOMORE stress case (§5.1, 12.5%
   scheduler/worker ratio, plateau near 5 threads). *)


let nodes_of = function Workload.Train | Workload.Train_spec -> 120 | _ -> 400

let build_input input =
  let n = nodes_of input in
  let seed = match input with Workload.Train | Workload.Train_spec -> 19 | _ -> 73 in
  let rng = Xinv_util.Prng.create ~seed in
  let ntxn = 160 in
  let itemlen = Array.init n (fun _ -> 8 + Xinv_util.Prng.int rng 8) in
  let itemstart = Array.make n 0 in
  for t = 1 to n - 1 do
    itemstart.(t) <- itemstart.(t - 1) + itemlen.(t - 1)
  done;
  let total = itemstart.(n - 1) + itemlen.(n - 1) in
  let txn = Array.make total 0 in
  for t = 0 to n - 1 do
    (* Each node's items hit distinct transactions drawn from a small pool:
       consecutive nodes conflict almost surely. *)
    let d = Wl_util.distinct_ints rng ~bound:ntxn ~n:itemlen.(t) in
    Array.blit d 0 txn itemstart.(t) itemlen.(t)
  done;
  let db = Array.make ntxn 0. in
  let cnt = Array.make ntxn 0. in
  Ir.Memory.create
    [
      Ir.Memory.Ints ("itemlen", itemlen);
      Ir.Memory.Ints ("itemstart", itemstart);
      Ir.Memory.Ints ("txn", txn);
      Ir.Memory.Floats ("db", db);
      Ir.Memory.Floats ("cnt", cnt);
    ]

let txn_expr = E.ld "txn" E.(ld "itemstart" o + i)

let build_program outer =
  let txn = Wl_util.index txn_expr in
  let append =
    Ir.Stmt.make
      ~reads:[ Ir.Access.make "db" txn_expr; Ir.Access.make "cnt" txn_expr ]
      ~writes:[ Ir.Access.make "db" txn_expr; Ir.Access.make "cnt" txn_expr ]
      ~cost:(fun env -> Wl_util.jittered ~base:800. ~spread:0.5 ~salt:29 env)
      ~exec:(fun env ->
        let mem = env.Ir.Env.mem in
        let ti = txn env in
        let item = float_of_int ((env.Ir.Env.t_outer * 7) mod 101) in
        Ir.Memory.set_float mem "db" ti (Wl_util.mix (Ir.Memory.get_float mem "db" ti) item);
        Ir.Memory.set_float mem "cnt" ti (Ir.Memory.get_float mem "cnt" ti +. 1.))
      "append(db[txn[it]], item)"
  in
  let fetch =
    Ir.Stmt.make
      ~reads:[ Ir.Access.make "itemstart" E.o; Ir.Access.make "itemlen" E.o ]
      ~cost:(Ir.Stmt.fixed_cost 160.)
      "node = next(graph)"
  in
  let trip env = Ir.Memory.get_int env.Ir.Env.mem "itemlen" env.Ir.Env.t_outer in
  Ir.Program.make ~name:"ECLAT" ~outer_trip:outer
    [ Ir.Program.inner ~pre:[ fetch ] ~label:"invert" ~trip [ append ] ]

let make () =
  let program = Wl_util.memo_by nodes_of (fun input -> build_program (nodes_of input)) in
  {
    Workload.name = "ECLAT";
    suite = "MineBench";
    func = "process_inverti";
    exec_pct = 24.5;
    program;
    fresh_env = (fun input -> Ir.Env.make (build_input input));
    plan = [ ("invert", Xinv_parallel.Intra.Spec_doall) ];
    mem_partition = false;
    domore_expected = true;
    speccross_expected = false;
  }
