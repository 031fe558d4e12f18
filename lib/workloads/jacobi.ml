module Ir = Xinv_ir
module E = Xinv_ir.Expr

(* PolyBench JACOBI: ping-pong 1-D stencil.  Two invocations per timestep
   (U -> V, then V -> U); the stencil's halo makes consecutive invocations
   truly dependent, at a task distance of about one invocation (Table 5.3:
   497 train / 997 ref at the paper's scale).  A residual diagnostic in the
   sequential region reads the field, which drags the bodies into the DOMORE
   scheduler partition — DOMORE inapplicable, exactly the Table 5.1 row. *)

let trip_of = function Workload.Train | Workload.Train_spec -> 60 | _ -> 100

let outer_of = function Workload.Train | Workload.Train_spec -> 20 | _ -> 50

let build_input input =
  let n = trip_of input in
  let u = Array.init (n + 2) (fun i -> float_of_int ((i * 37) mod 1021)) in
  let v = Array.make (n + 2) 0. in
  Ir.Memory.create [ Ir.Memory.Floats ("U", u); Ir.Memory.Floats ("V", v) ]

let stencil ~label ~src ~dst n =
  let out = E.(i + c 1) in
  let handles =
    Wl_util.memo (fun mem ->
        (Ir.Memory.float_data mem src, Ir.Memory.float_data mem dst))
  in
  let body =
    Ir.Stmt.make
      ~reads:
        [
          Ir.Access.make src E.i;
          Ir.Access.make src E.(i + c 1);
          Ir.Access.make src E.(i + c 2);
        ]
      ~writes:[ Ir.Access.make dst out ]
      ~cost:(fun env -> Wl_util.jittered ~base:900. ~salt:31 env)
      ~exec:(fun env ->
        let mem = env.Ir.Env.mem in
        let j = env.Ir.Env.j_inner in
        if Ir.Memory.observed mem then begin
          (* Observable slow path: Validate watches every access. *)
          let s =
            Ir.Memory.get_float mem src j
            +. Ir.Memory.get_float mem src (j + 1)
            +. Ir.Memory.get_float mem src (j + 2)
          in
          Ir.Memory.set_float mem dst (j + 1) (Float.rem (s +. 1.) Wl_util.modulus)
        end
        else begin
          let s, d = handles mem in
          d.(j + 1) <- Float.rem (s.(j) +. s.(j + 1) +. s.(j + 2) +. 1.) Wl_util.modulus
        end)
      (Printf.sprintf "%s[j+1] = avg(%s[j..j+2])" dst src)
  in
  let residual =
    Ir.Stmt.make
      ~reads:[ Ir.Access.make src E.(Bin (Mod, o, c n) + c 1) ]
      ~cost:(Ir.Stmt.fixed_cost 140.)
      "residual_check(field)"
  in
  Ir.Program.inner ~pre:[ residual ] ~label ~trip:(Ir.Program.const_trip n) [ body ]

let build_program input =
  let n = trip_of input in
  Ir.Program.make ~name:"JACOBI" ~outer_trip:(outer_of input)
    [ stencil ~label:"fwd" ~src:"U" ~dst:"V" n; stencil ~label:"bwd" ~src:"V" ~dst:"U" n ]

let make () =
  let program = Wl_util.memo_by (fun input -> (trip_of input, outer_of input)) build_program in
  {
    Workload.name = "JACOBI";
    suite = "PolyBench";
    func = "main";
    exec_pct = 100.0;
    program;
    fresh_env = (fun input -> Ir.Env.make (build_input input));
    plan =
      [ ("fwd", Xinv_parallel.Intra.Doall); ("bwd", Xinv_parallel.Intra.Doall) ];
    mem_partition = false;
    domore_expected = false;
    speccross_expected = true;
  }
