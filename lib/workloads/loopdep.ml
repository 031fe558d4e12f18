module Ir = Xinv_ir
module E = Xinv_ir.Expr

(* OmpSCR/OmpBench LOOPDEP: the Figure 4.1 pattern.  L1 reads B through
   index array C; L2 rewrites part of C itself.  Because workers update the
   very array the scheduler's computeAddr would have to load, DOMORE's slice
   is rejected (the dissertation's motivating limitation), while SPECCROSS
   profiles a safely large dependence distance (Table 5.3: 500/800). *)

let trip1_of = function Workload.Train | Workload.Train_spec -> 100 | _ -> 160

let trip2 = 40

let outer_of = function Workload.Train | Workload.Train_spec -> 30 | _ -> 60

let build_input input =
  let t1 = trip1_of input in
  let seed = match input with Workload.Train | Workload.Train_spec -> 13 | _ -> 83 in
  let rng = Xinv_util.Prng.create ~seed in
  let nb = 400 in
  let a = Array.make t1 0. in
  let b = Array.init nb (fun i -> float_of_int ((i * 11) mod 613)) in
  let c0 = Array.init t1 (fun _ -> Xinv_util.Prng.int rng nb) in
  let d = Wl_util.distinct_ints rng ~bound:t1 ~n:trip2 in
  (* Ascending slots keep D.(k) >= k, bounding the dependence distance away
     from zero (the profiled minimum the paper reports for LOOPDEP). *)
  Array.sort compare d;
  let master = Array.init t1 (fun _ -> Xinv_util.Prng.int rng nb) in
  Ir.Memory.create
    [
      Ir.Memory.Floats ("A", a);
      Ir.Memory.Floats ("B", b);
      Ir.Memory.Ints ("C", c0);
      Ir.Memory.Ints ("D", d);
      Ir.Memory.Ints ("master", master);
    ]

let build_program input =
  let t1 = trip1_of input in
  let c_at = E.ld "C" E.i in
  let c_of = Wl_util.index c_at in
  let l1 =
    Ir.Stmt.make
      ~reads:[ Ir.Access.make "B" c_at; Ir.Access.make "A" E.i ]
      ~writes:[ Ir.Access.make "A" E.i ]
      ~cost:(fun env -> Wl_util.jittered ~base:1000. ~salt:43 env)
      ~exec:(fun env ->
        let mem = env.Ir.Env.mem in
        let bv = Ir.Memory.get_float mem "B" (c_of env) in
        let cur = Ir.Memory.get_float mem "A" env.Ir.Env.j_inner in
        Ir.Memory.set_float mem "A" env.Ir.Env.j_inner (Wl_util.mix cur bv))
      "A[i] = update_1(B[C[i]])"
  in
  let d_at = E.ld "D" E.i in
  let d_of = Wl_util.index d_at in
  let l2 =
    Ir.Stmt.make
      ~reads:[ Ir.Access.make "master" d_at ]
      ~writes:[ Ir.Access.make "C" d_at ]
      ~cost:(fun env -> Wl_util.jittered ~base:1000. ~salt:47 env)
      ~exec:(fun env ->
        let mem = env.Ir.Env.mem in
        let slot = d_of env in
        let base = Ir.Memory.get_int mem "master" slot in
        let nb = Ir.Memory.size mem "B" in
        Ir.Memory.set_int mem "C" slot ((base + (7 * env.Ir.Env.t_outer)) mod nb))
      "C[D[k]] = update_3(k)"
  in
  Ir.Program.make ~name:"LOOPDEP" ~outer_trip:(outer_of input)
    [
      Ir.Program.inner ~label:"L1" ~trip:(Ir.Program.const_trip t1) [ l1 ];
      Ir.Program.inner ~label:"L2" ~trip:(Ir.Program.const_trip trip2) [ l2 ];
    ]

let make () =
  let program =
    Wl_util.memo_by (fun input -> (trip1_of input, outer_of input)) build_program
  in
  {
    Workload.name = "LOOPDEP";
    suite = "OMPBench";
    func = "main";
    exec_pct = 100.0;
    program;
    fresh_env = (fun input -> Ir.Env.make (build_input input));
    plan =
      [ ("L1", Xinv_parallel.Intra.Doall); ("L2", Xinv_parallel.Intra.Doall) ];
    mem_partition = false;
    domore_expected = false;
    speccross_expected = true;
  }
