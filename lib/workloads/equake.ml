module Ir = Xinv_ir
module E = Xinv_ir.Expr

(* SpecFP EQUAKE main time-stepping loop: each timestep performs a sparse
   matrix-vector product whose reads go through a column index array the
   compiler cannot analyze, writing a per-timestep result slice.  No
   cross-invocation dependence ever manifests (Table 5.3 reports "*"), but
   static analysis must assume them; a displacement probe in the sequential
   region blocks the DOMORE partition (Table 5.1: DOMORE x). *)

let trip = 22

let outer_of = function Workload.Train | Workload.Train_spec -> 90 | _ -> 300

let build_input input =
  let n = outer_of input in
  let seed = match input with Workload.Train | Workload.Train_spec -> 5 | _ -> 61 in
  let rng = Xinv_util.Prng.create ~seed in
  let stiff = Array.init 512 (fun i -> float_of_int ((i * 19) mod 761)) in
  let colv = Array.init trip (fun _ -> Xinv_util.Prng.int rng 512) in
  let wave = Array.make (n * trip) 0. in
  Ir.Memory.create
    [
      Ir.Memory.Floats ("stiff", stiff);
      Ir.Memory.Ints ("colV", colv);
      Ir.Memory.Floats ("wave", wave);
    ]

let out = E.((o * c trip) + i)

let stiff_at = E.ld "colV" E.i

let build_program outer =
  let stiff = Wl_util.index stiff_at and wave = Wl_util.index out in
  let smvp =
    Ir.Stmt.make
      ~reads:[ Ir.Access.make "stiff" stiff_at ]
      ~writes:[ Ir.Access.make "wave" out ]
      ~cost:(fun env -> Wl_util.jittered ~base:1300. ~spread:0.55 ~salt:41 env)
      ~exec:(fun env ->
        let mem = env.Ir.Env.mem in
        let k = Ir.Memory.get_float mem "stiff" (stiff env) in
        Ir.Memory.set_float mem "wave" (wave env)
          (Float.rem (k +. float_of_int env.Ir.Env.t_outer) Wl_util.modulus))
      "w[Anext] = K[col[j]]*v"
  in
  let probe =
    Ir.Stmt.make
      ~reads:[ Ir.Access.make "wave" E.(Bin (Mod, o * c trip, c 660)) ]
      ~cost:(Ir.Stmt.fixed_cost 150.)
      "disp_probe"
  in
  Ir.Program.make ~name:"EQUAKE" ~outer_trip:outer
    [ Ir.Program.inner ~pre:[ probe ] ~label:"smvp" ~trip:(Ir.Program.const_trip trip) [ smvp ] ]

let make () =
  let program = Wl_util.memo_by outer_of (fun input -> build_program (outer_of input)) in
  {
    Workload.name = "EQUAKE";
    suite = "SpecFP";
    func = "main";
    exec_pct = 100.0;
    program;
    fresh_env = (fun input -> Ir.Env.make (build_input input));
    plan = [ ("smvp", Xinv_parallel.Intra.Doall) ];
    mem_partition = false;
    domore_expected = false;
    speccross_expected = true;
  }
