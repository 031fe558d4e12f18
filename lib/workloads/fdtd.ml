module Ir = Xinv_ir
module E = Xinv_ir.Expr

(* PolyBench FDTD-2D (1-D-ized): three field-update invocations per
   timestep (ey, ex, hz) with stencil halos coupling consecutive
   invocations.  Like JACOBI, a field diagnostic in the sequential region
   blocks the DOMORE partition (Table 5.1: DOMORE x, SPECCROSS ok). *)

let trip_of = function Workload.Train | Workload.Train_spec -> 80 | _ -> 160

let outer_of = function Workload.Train | Workload.Train_spec -> 15 | _ -> 40

let build_input input =
  let n = trip_of input in
  let init k = Array.init (n + 2) (fun i -> float_of_int (((i * 29) + k) mod 977)) in
  Ir.Memory.create
    [
      Ir.Memory.Floats ("ex", init 1);
      Ir.Memory.Floats ("ey", init 2);
      Ir.Memory.Floats ("hz", init 3);
    ]

let update ~label ~dst ~srcs n =
  let out = E.(i + c 1) in
  let reads =
    Ir.Access.make dst out
    :: List.concat_map
         (fun s -> [ Ir.Access.make s E.i; Ir.Access.make s E.(i + c 1) ])
         srcs
  in
  let body =
    Ir.Stmt.make ~reads
      ~writes:[ Ir.Access.make dst out ]
      ~cost:(fun env -> Wl_util.jittered ~base:800. ~spread:0.4 ~salt:37 env)
      ~exec:(fun env ->
        let mem = env.Ir.Env.mem in
        let j = env.Ir.Env.j_inner in
        let s =
          List.fold_left
            (fun acc src ->
              acc +. Ir.Memory.get_float mem src j +. Ir.Memory.get_float mem src (j + 1))
            (Ir.Memory.get_float mem dst (j + 1))
            srcs
        in
        Ir.Memory.set_float mem dst (j + 1) (Float.rem s Wl_util.modulus))
      (Printf.sprintf "%s[j+1] -= coef*curl(%s)" dst (String.concat "," srcs))
  in
  let probe =
    Ir.Stmt.make
      ~reads:[ Ir.Access.make dst E.(Bin (Mod, o, c n) + c 1) ]
      ~cost:(Ir.Stmt.fixed_cost 120.)
      "field_probe"
  in
  Ir.Program.inner ~pre:[ probe ] ~label ~trip:(Ir.Program.const_trip n) [ body ]

let build_program input =
  let n = trip_of input in
  Ir.Program.make ~name:"FDTD" ~outer_trip:(outer_of input)
    [
      update ~label:"ey" ~dst:"ey" ~srcs:[ "hz" ] n;
      update ~label:"ex" ~dst:"ex" ~srcs:[ "hz" ] n;
      update ~label:"hz" ~dst:"hz" ~srcs:[ "ex"; "ey" ] n;
    ]

let make () =
  let program = Wl_util.memo_by (fun input -> (trip_of input, outer_of input)) build_program in
  {
    Workload.name = "FDTD";
    suite = "PolyBench";
    func = "main";
    exec_pct = 100.0;
    program;
    fresh_env = (fun input -> Ir.Env.make (build_input input));
    plan =
      [
        ("ey", Xinv_parallel.Intra.Doall);
        ("ex", Xinv_parallel.Intra.Doall);
        ("hz", Xinv_parallel.Intra.Doall);
      ];
    mem_partition = false;
    domore_expected = false;
    speccross_expected = true;
  }
