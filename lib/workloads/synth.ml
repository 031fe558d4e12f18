module Ir = Xinv_ir
module E = Xinv_ir.Expr

type spec = {
  outer : int;
  inners : int;
  trip : int;
  cells : int;
  within_safe : bool;
  base_cost : float;
  seed : int;
}

let default =
  { outer = 8; inners = 2; trip = 12; cells = 40; within_safe = true; base_cost = 400.; seed = 1 }

let make spec =
  assert (spec.outer > 0 && spec.inners > 0 && spec.trip > 0);
  assert ((not spec.within_safe) || spec.cells >= spec.trip);
  let rng = Xinv_util.Prng.create ~seed:spec.seed in
  (* One target-index array per inner loop and outer iteration. *)
  let total = spec.inners * spec.outer * spec.trip in
  let tgt = Array.make total 0 in
  for k = 0 to (spec.inners * spec.outer) - 1 do
    let slice =
      if spec.within_safe then Wl_util.distinct_ints rng ~bound:spec.cells ~n:spec.trip
      else Array.init spec.trip (fun _ -> Xinv_util.Prng.int rng spec.cells)
    in
    Array.blit slice 0 tgt (k * spec.trip) spec.trip
  done;
  let data0 = Array.init spec.cells (fun i -> float_of_int (i mod 61)) in
  let fresh () =
    Ir.Env.make
      (Ir.Memory.create
         [ Ir.Memory.Ints ("tgt", tgt); Ir.Memory.Floats ("data", data0) ])
  in
  let mk_inner li =
    let off = li * spec.outer * spec.trip in
    let at = E.(ld "tgt" (c off + (o * c spec.trip) + i)) in
    let target = Wl_util.index at in
    let body =
      Ir.Stmt.make
        ~reads:[ Ir.Access.make "data" at ]
        ~writes:[ Ir.Access.make "data" at ]
        ~cost:(fun env -> Wl_util.jittered ~base:spec.base_cost ~salt:(li + 7) env)
        ~exec:(fun env ->
          let mem = env.Ir.Env.mem in
          let c = target env in
          let k =
            float_of_int
              (((li * 131) + (env.Ir.Env.t_outer * 17) + env.Ir.Env.j_inner) mod 255)
          in
          Ir.Memory.set_float mem "data" c (Wl_util.mix (Ir.Memory.get_float mem "data" c) k))
        (Printf.sprintf "upd%d" li)
    in
    Ir.Program.inner
      ~label:(Printf.sprintf "L%d" li)
      ~trip:(Ir.Program.const_trip spec.trip) [ body ]
  in
  let prog =
    Ir.Program.make ~name:"SYNTH" ~outer_trip:spec.outer
      (List.init spec.inners mk_inner)
  in
  (prog, fresh)
