module Ir = Xinv_ir
module E = Xinv_ir.Expr

(* LLVMBENCH LLUBENCH: linked-list traversal micro-benchmark.  Each outer
   iteration updates a chain of list nodes reached through a pointer
   (index) array; every dynamic access is distinct, so no cross-invocation
   dependence ever manifests — but static analysis cannot see through the
   pointer indirection, so the barrier version synchronizes anyway. *)

let trip = 55

let outer_of = function Workload.Train | Workload.Train_spec -> 60 | _ -> 200

let build_input input =
  let n = outer_of input in
  let seed = match input with Workload.Train | Workload.Train_spec -> 7 | _ -> 91 in
  let rng = Xinv_util.Prng.create ~seed in
  let ntasks = n * trip in
  let nodeidx = Wl_util.permutation rng ntasks in
  let data = Array.init ntasks (fun i -> float_of_int (i mod 509)) in
  Ir.Memory.create
    [ Ir.Memory.Ints ("nodeidx", nodeidx); Ir.Memory.Floats ("data", data) ]

let build_program outer =
  let node = E.ld "nodeidx" E.((o * c trip) + i) in
  let node_at = Wl_util.index node in
  let handles =
    Wl_util.memo (fun mem ->
        (Ir.Memory.int_data mem "nodeidx", Ir.Memory.float_data mem "data"))
  in
  let update =
    Ir.Stmt.make
      ~reads:[ Ir.Access.make "data" node ]
      ~writes:[ Ir.Access.make "data" node ]
      ~cost:(fun env -> Wl_util.jittered ~base:1500. ~spread:0.6 ~salt:5 env)
      ~exec:(fun env ->
        let mem = env.Ir.Env.mem in
        if Ir.Memory.observed mem then begin
          (* Observable slow path: Validate watches every access. *)
          let ni = node_at env in
          let cur = Ir.Memory.get_float mem "data" ni in
          Ir.Memory.set_float mem "data" ni
            (Wl_util.mix cur (float_of_int (ni mod 127)))
        end
        else begin
          let nodeidx, data = handles mem in
          let ni = nodeidx.((env.Ir.Env.t_outer * trip) + env.Ir.Env.j_inner) in
          data.(ni) <- Wl_util.mix data.(ni) (float_of_int (ni mod 127))
        end)
      "node->val = work(node)"
  in
  Ir.Program.make ~name:"LLUBENCH" ~outer_trip:outer
    [ Ir.Program.inner ~label:"chase" ~trip:(Ir.Program.const_trip trip) [ update ] ]

let make () =
  let program = Wl_util.memo_by outer_of (fun input -> build_program (outer_of input)) in
  {
    Workload.name = "LLUBENCH";
    suite = "LLVMBENCH";
    func = "main";
    exec_pct = 50.0;
    program;
    fresh_env = (fun input -> Ir.Env.make (build_input input));
    plan = [ ("chase", Xinv_parallel.Intra.Doall) ];
    mem_partition = false;
    domore_expected = true;
    speccross_expected = true;
  }
