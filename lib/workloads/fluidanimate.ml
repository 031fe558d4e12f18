module Ir = Xinv_ir
module E = Xinv_ir.Expr

(* PARSEC FLUIDANIMATE.

   [make2] is the whole-application region (Figure 5.5): eight invocations
   per frame.  RebuildGrid writes the cell index array that the density and
   force loops read through, so classic DOMORE cannot slice ahead of the
   workers (Table 5.1: DOMORE x); the two irregular-update loops use
   LOCALWRITE (or, in Figure 5.6, within-epoch duplicated DOMORE) and the
   remaining six are DOALL.

   [make1] is the ComputeForce loop nest alone (50.2% of execution), with a
   static neighbour structure: the standard DOMORE target, with a heavy
   computeAddr slice (the 21.5% scheduler/worker ratio of Table 5.2). *)

let neighbours = 4

(* ---------- FLUIDANIMATE-1: ComputeForce nest ---------- *)

let p1_of = function Workload.Train | Workload.Train_spec -> 80 | _ -> 150

let frames1_of = function Workload.Train | Workload.Train_spec -> 25 | _ -> 80

let build_input1 input =
  let p = p1_of input in
  let seed = match input with Workload.Train | Workload.Train_spec -> 17 | _ -> 67 in
  let rng = Xinv_util.Prng.create ~seed in
  let neigh =
    (* Neighbours sit within a small forward window of the particle: keeps
       the cross-invocation dependence distance near one invocation (the
       profiled minimum the paper reports), never at zero. *)
    Array.init (p * neighbours) (fun k ->
        let j = k / neighbours in
        Stdlib.min (j + 1 + Xinv_util.Prng.int rng 16) (p - 1))
  in
  let pos = Array.init p (fun j -> float_of_int ((j * 53) mod 4099)) in
  let force = Array.make p 0. in
  Ir.Memory.create
    [
      Ir.Memory.Ints ("neigh", neigh);
      Ir.Memory.Floats ("pos", pos);
      Ir.Memory.Floats ("force", force);
    ]

let n_at k = E.ld "neigh" E.((i * c neighbours) + c k)

let build_program1 input =
  let traverse =
    Ir.Stmt.make
      ~reads:
        (Ir.Access.make "pos" E.i
        :: List.init neighbours (fun k -> Ir.Access.make "pos" (n_at k)))
      ~cost:(fun env -> Wl_util.jittered ~base:700. ~spread:0.4 ~salt:53 env)
      "fk = kernel(p, neighbours(p))"
  in
  let own_update =
    Ir.Stmt.make
      ~reads:[ Ir.Access.make "pos" E.i; Ir.Access.make "force" E.i ]
      ~writes:[ Ir.Access.make "force" E.i ]
      ~cost:(fun env -> Wl_util.jittered ~base:500. ~spread:0.3 ~salt:59 env)
      ~exec:(fun env ->
        let mem = env.Ir.Env.mem in
        let j = env.Ir.Env.j_inner in
        let k = Ir.Memory.get_float mem "pos" j in
        Ir.Memory.set_float mem "force" j
          (Wl_util.mix (Ir.Memory.get_float mem "force" j) k))
      "force[p] += fk"
  in
  let neighbour = Wl_util.index (n_at 0) in
  let neigh_update =
    Ir.Stmt.make
      ~reads:[ Ir.Access.make "pos" E.i; Ir.Access.make "force" (n_at 0) ]
      ~writes:[ Ir.Access.make "force" (n_at 0) ]
      ~cost:(fun env -> Wl_util.jittered ~base:500. ~spread:0.3 ~salt:61 env)
      ~exec:(fun env ->
        let mem = env.Ir.Env.mem in
        let q = neighbour env in
        let k = Ir.Memory.get_float mem "pos" env.Ir.Env.j_inner in
        Ir.Memory.set_float mem "force" q
          (Wl_util.mix (Ir.Memory.get_float mem "force" q) (k +. 1.)))
      "force[q] -= fk"
  in
  Ir.Program.make ~name:"FLUIDANIMATE-1" ~outer_trip:(frames1_of input)
    [
      Ir.Program.inner ~label:"ComputeForce"
        ~trip:(Ir.Program.const_trip (p1_of input))
        [ traverse; own_update; neigh_update ];
    ]

let make1 () =
  let program =
    Wl_util.memo_by (fun input -> (p1_of input, frames1_of input)) build_program1
  in
  {
    Workload.name = "FLUIDANIMATE-1";
    suite = "PARSEC";
    func = "ComputeForce";
    exec_pct = 50.2;
    program;
    fresh_env = (fun input -> Ir.Env.make (build_input1 input));
    plan = [ ("ComputeForce", Xinv_parallel.Intra.Localwrite) ];
    mem_partition = true;
    domore_expected = true;
    speccross_expected = false;
  }

(* ---------- FLUIDANIMATE-2: whole application ---------- *)

let p2_of = function Workload.Train | Workload.Train_spec -> 64 | _ -> 120

let frames2_of = function Workload.Train | Workload.Train_spec -> 8 | _ -> 19

let cells = 32

let build_input2 input =
  let p = p2_of input in
  let seed = match input with Workload.Train | Workload.Train_spec -> 23 | _ -> 71 in
  let rng = Xinv_util.Prng.create ~seed in
  let neigh =
    (* Neighbours sit within a small forward window of the particle: keeps
       the cross-invocation dependence distance near one invocation (the
       profiled minimum the paper reports), never at zero. *)
    Array.init (p * neighbours) (fun k ->
        let j = k / neighbours in
        Stdlib.min (j + 1 + Xinv_util.Prng.int rng 16) (p - 1))
  in
  let pos = Array.init p (fun j -> float_of_int ((j * 97) mod 65536)) in
  Ir.Memory.create
    [
      Ir.Memory.Ints ("neigh", neigh);
      Ir.Memory.Ints ("cellof", Array.make p 0);
      Ir.Memory.Floats ("pos", pos);
      Ir.Memory.Floats ("vel", Array.make p 0.);
      Ir.Memory.Floats ("dens", Array.make p 0.);
      Ir.Memory.Floats ("force", Array.make p 0.);
    ]

let simple ?(commutes = false) ~label ~base ~salt ~reads ~writes exec =
  Ir.Stmt.make ~reads ~writes ~commutes
    ~cost:(fun env -> Wl_util.jittered ~base ~spread:0.4 ~salt env)
    ~exec label

let build_program2 input =
  let p = p2_of input in
  let memf = Ir.Memory.get_float and setf = Ir.Memory.set_float in
  let clear =
    simple ~label:"dens[p]=0" ~base:900. ~salt:101 ~reads:[]
      ~writes:[ Ir.Access.make "dens" E.i ]
      (fun env -> setf env.Ir.Env.mem "dens" env.Ir.Env.j_inner 0.)
  in
  let rebuild =
    simple ~label:"cellof[p]=grid(pos)" ~base:400. ~salt:103
      ~reads:[ Ir.Access.make "pos" E.i ]
      ~writes:[ Ir.Access.make "cellof" E.i ]
      (fun env ->
        let j = env.Ir.Env.j_inner in
        let c = int_of_float (memf env.Ir.Env.mem "pos" j) mod cells in
        Ir.Memory.set_int env.Ir.Env.mem "cellof" j (abs c))
  in
  let initf =
    simple ~label:"force[p]=0" ~base:250. ~salt:107 ~reads:[]
      ~writes:[ Ir.Access.make "force" E.i ]
      (fun env -> setf env.Ir.Env.mem "force" env.Ir.Env.j_inner 0.)
  in
  (* Density/force contributions land on one of the particle's neighbours;
     the grid cell (an index array rewritten every frame) selects which
     slot, so the access is doubly irregular and the scheduler slice would
     need worker-written state.  Targets stay within the forward neighbour
     window, keeping the dependence distance near one invocation. *)
  let via_cell =
    E.ld "neigh" E.((i * c neighbours) + Bin (Mod, ld "cellof" i, c neighbours))
  in
  let cell = Wl_util.index via_cell in
  let gather1 =
    (* Neighbour-gathering traversal: no writes, so LOCALWRITE repeats it on
       every thread — the redundancy that limits LOCALWRITE in §5.4. *)
    simple ~label:"gather(p)" ~base:450. ~salt:108
      ~reads:[ Ir.Access.make "pos" E.i; Ir.Access.make "pos" via_cell ]
      ~writes:[]
      (fun _ -> ())
  in
  let dens1 =
    (* Integer-valued accumulation: exact and commutative, so DOANY's
       lock-ordered execution matches sequential bit-for-bit. *)
    simple ~commutes:true ~label:"dens[q]+=w(p,q)" ~base:450. ~salt:109
      ~reads:[ Ir.Access.make "pos" E.i; Ir.Access.make "dens" via_cell ]
      ~writes:[ Ir.Access.make "dens" via_cell ]
      (fun env ->
        let mem = env.Ir.Env.mem in
        let q = cell env in
        let k = memf mem "pos" env.Ir.Env.j_inner in
        setf mem "dens" q (memf mem "dens" q +. k))
  in
  let dens2 =
    simple ~label:"dens[p]=h(dens[p])" ~base:350. ~salt:113
      ~reads:[ Ir.Access.make "dens" E.i ]
      ~writes:[ Ir.Access.make "dens" E.i ]
      (fun env ->
        let mem = env.Ir.Env.mem in
        let j = env.Ir.Env.j_inner in
        setf mem "dens" j (Float.rem (memf mem "dens" j +. 2.) Wl_util.modulus))
  in
  let gather2 =
    simple ~label:"kernel(p)" ~base:550. ~salt:126
      ~reads:[ Ir.Access.make "pos" E.i; Ir.Access.make "dens" E.i ]
      ~writes:[]
      (fun _ -> ())
  in
  let force1 =
    simple ~commutes:true ~label:"force[q]+=f(p,q)" ~base:550. ~salt:127
      ~reads:
        [
          Ir.Access.make "pos" E.i;
          Ir.Access.make "dens" E.i;
          Ir.Access.make "force" via_cell;
        ]
      ~writes:[ Ir.Access.make "force" via_cell ]
      (fun env ->
        let mem = env.Ir.Env.mem in
        let q = cell env in
        let k = memf mem "dens" env.Ir.Env.j_inner in
        setf mem "force" q (memf mem "force" q +. k +. 3.))
  in
  let collide =
    simple ~label:"vel[p]=c(vel,force)" ~base:400. ~salt:131
      ~reads:[ Ir.Access.make "vel" E.i; Ir.Access.make "force" E.i ]
      ~writes:[ Ir.Access.make "vel" E.i ]
      (fun env ->
        let mem = env.Ir.Env.mem in
        let j = env.Ir.Env.j_inner in
        setf mem "vel" j (Wl_util.mix (memf mem "vel" j) (memf mem "force" j)))
  in
  let advance =
    simple ~label:"pos[p]+=vel[p]" ~base:450. ~salt:137
      ~reads:[ Ir.Access.make "pos" E.i; Ir.Access.make "vel" E.i ]
      ~writes:[ Ir.Access.make "pos" E.i ]
      (fun env ->
        let mem = env.Ir.Env.mem in
        let j = env.Ir.Env.j_inner in
        setf mem "pos" j (Wl_util.mix (memf mem "pos" j) (memf mem "vel" j)))
  in
  let loop label stmt =
    Ir.Program.inner ~label ~trip:(Ir.Program.const_trip p) [ stmt ]
  in
  Ir.Program.make ~name:"FLUIDANIMATE-2" ~outer_trip:(frames2_of input)
    [
      loop "ClearParticles" clear;
      loop "RebuildGrid" rebuild;
      loop "InitDensitiesAndForces" initf;
      Ir.Program.inner ~label:"ComputeDensities" ~trip:(Ir.Program.const_trip p)
        [ gather1; dens1 ];
      loop "ComputeDensities2" dens2;
      Ir.Program.inner ~label:"ComputeForces" ~trip:(Ir.Program.const_trip p)
        [ gather2; force1 ];
      loop "ProcessCollisions" collide;
      loop "AdvanceParticles" advance;
    ]

let plan2 =
  [
    ("ClearParticles", Xinv_parallel.Intra.Doall);
    ("RebuildGrid", Xinv_parallel.Intra.Doall);
    ("InitDensitiesAndForces", Xinv_parallel.Intra.Doall);
    ("ComputeDensities", Xinv_parallel.Intra.Localwrite);
    ("ComputeDensities2", Xinv_parallel.Intra.Doall);
    ("ComputeForces", Xinv_parallel.Intra.Localwrite);
    ("ProcessCollisions", Xinv_parallel.Intra.Doall);
    ("AdvanceParticles", Xinv_parallel.Intra.Doall);
  ]

let make2 () =
  let program =
    Wl_util.memo_by (fun input -> (p2_of input, frames2_of input)) build_program2
  in
  {
    Workload.name = "FLUIDANIMATE-2";
    suite = "PARSEC";
    func = "main";
    exec_pct = 100.0;
    program;
    fresh_env = (fun input -> Ir.Env.make (build_input2 input));
    plan = plan2;
    mem_partition = true;
    domore_expected = false;
    speccross_expected = true;
  }
