module Ir = Xinv_ir
module E = Xinv_ir.Expr

(* PARSEC BLACKSCHOLES, function bs_thread: repeated sweeps pricing a
   portfolio of options.  Each sweep writes results through a static
   permutation, so iterations within a sweep never conflict — but the writes
   are irregular, so the paper's plan speculates (Spec-DOALL) and SPECCROSS
   is inapplicable (Table 5.1).  Across sweeps every location is rewritten,
   a dependence DOMORE's memory-partition scheduling turns into same-worker
   ordering with no synchronization at all. *)

let trip = 80

let outer_of = function Workload.Train | Workload.Train_spec -> 90 | _ -> 280

let build_input input =
  let seed = match input with Workload.Train | Workload.Train_spec -> 3 | _ -> 57 in
  let rng = Xinv_util.Prng.create ~seed in
  let pm = Wl_util.permutation rng trip in
  let price = Array.make trip 100. in
  let spot = Array.init trip (fun i -> float_of_int ((i * 17) mod 211)) in
  Ir.Memory.create
    [
      Ir.Memory.Ints ("pm", pm);
      Ir.Memory.Floats ("price", price);
      Ir.Memory.Floats ("spot", spot);
    ]

let slot = E.ld "pm" E.i

let build_program outer =
  let slot_at = Wl_util.index slot in
  let handles =
    Wl_util.memo (fun mem ->
        ( Ir.Memory.int_data mem "pm",
          Ir.Memory.float_data mem "price",
          Ir.Memory.float_data mem "spot" ))
  in
  let body =
    Ir.Stmt.make
      ~reads:[ Ir.Access.make "spot" E.i; Ir.Access.make "price" slot ]
      ~writes:[ Ir.Access.make "price" slot ]
      ~cost:(fun env -> Wl_util.jittered ~base:1600. ~spread:0.45 ~salt:23 env)
      ~exec:(fun env ->
        let mem = env.Ir.Env.mem in
        if Ir.Memory.observed mem then begin
          (* Observable slow path: Validate watches every access. *)
          let s = Ir.Memory.get_float mem "spot" env.Ir.Env.j_inner in
          let p = slot_at env in
          let cur = Ir.Memory.get_float mem "price" p in
          Ir.Memory.set_float mem "price" p (Wl_util.mix cur s)
        end
        else begin
          let pm, price, spot = handles mem in
          let p = pm.(env.Ir.Env.j_inner) in
          price.(p) <- Wl_util.mix price.(p) spot.(env.Ir.Env.j_inner)
        end)
      "price[pm[j]] = BlkSchls(...)"
  in
  Ir.Program.make ~name:"BLACKSCHOLES" ~outer_trip:outer
    [ Ir.Program.inner ~label:"bs" ~trip:(Ir.Program.const_trip trip) [ body ] ]

let make () =
  let program = Wl_util.memo_by outer_of (fun input -> build_program (outer_of input)) in
  {
    Workload.name = "BLACKSCHOLES";
    suite = "PARSEC";
    func = "bs_thread";
    exec_pct = 99.0;
    program;
    fresh_env = (fun input -> Ir.Env.make (build_input input));
    plan = [ ("bs", Xinv_parallel.Intra.Spec_doall) ];
    mem_partition = true;
    domore_expected = true;
    speccross_expected = false;
  }
