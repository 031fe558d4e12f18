module Ir = Xinv_ir
module E = Xinv_ir.Expr

(* PolyBench SYMM: symmetric rank-k style kernel.  Fully affine: iteration
   (t, j) writes Cm[t*TRIP + j], so invocations are provably independent
   within themselves and actually independent across invocations — yet the
   parallelizer still synchronizes after every invocation, which is exactly
   the waste SPECCROSS removes.  Small, regular iterations also make it the
   DOMORE stress case: invocations are only tens of thousands of cycles, so
   per-iteration scheduling overhead dominates (§5.1). *)

let trip = 60

let outer_of = function Workload.Train | Workload.Train_spec -> 200 | _ -> 700

let build_input input =
  let n = outer_of input in
  let a = Array.init trip (fun i -> float_of_int ((i * 7) mod 97)) in
  let b = Array.init n (fun i -> float_of_int ((i * 13) mod 89)) in
  let cm = Array.make (n * trip) 0. in
  Ir.Memory.create
    [ Ir.Memory.Floats ("A", a); Ir.Memory.Floats ("B", b); Ir.Memory.Floats ("Cm", cm) ]

let out_expr = E.((o * c trip) + i)

let build_program outer =
  let out = Wl_util.index out_expr in
  let handles =
    Wl_util.memo (fun mem ->
        ( Ir.Memory.float_data mem "A",
          Ir.Memory.float_data mem "B",
          Ir.Memory.float_data mem "Cm" ))
  in
  let body =
    Ir.Stmt.make
      ~reads:[ Ir.Access.make "A" E.i; Ir.Access.make "B" E.o ]
      ~writes:[ Ir.Access.make "Cm" out_expr ]
      ~cost:(fun env -> Wl_util.jittered ~base:400. ~spread:0.3 ~salt:11 env)
      ~exec:(fun env ->
        let mem = env.Ir.Env.mem in
        if Ir.Memory.observed mem then begin
          (* Observable slow path: Validate watches every access. *)
          let av = Ir.Memory.get_float mem "A" env.Ir.Env.j_inner in
          let bv = Ir.Memory.get_float mem "B" env.Ir.Env.t_outer in
          Ir.Memory.set_float mem "Cm" (out env)
            (Float.rem ((av *. bv) +. av +. bv) Wl_util.modulus)
        end
        else begin
          let a, b, cm = handles mem in
          let av = a.(env.Ir.Env.j_inner) in
          let bv = b.(env.Ir.Env.t_outer) in
          cm.((env.Ir.Env.t_outer * trip) + env.Ir.Env.j_inner) <-
            Float.rem ((av *. bv) +. av +. bv) Wl_util.modulus
        end)
      "C[i][j] = acc(A, B)"
  in
  Ir.Program.make ~name:"SYMM" ~outer_trip:outer
    [ Ir.Program.inner ~label:"symm" ~trip:(Ir.Program.const_trip trip) [ body ] ]

let make () =
  let program = Wl_util.memo_by outer_of (fun input -> build_program (outer_of input)) in
  {
    Workload.name = "SYMM";
    suite = "PolyBench";
    func = "main";
    exec_pct = 100.0;
    program;
    fresh_env = (fun input -> Ir.Env.make (build_input input));
    plan = [ ("symm", Xinv_parallel.Intra.Doall) ];
    mem_partition = false;
    domore_expected = true;
    speccross_expected = true;
  }
