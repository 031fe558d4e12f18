module Ir = Xinv_ir
module E = Xinv_ir.Expr

let rows_of = function
  | Workload.Train | Workload.Train_spec -> 180
  | Workload.Ref | Workload.Ref_spec -> 700

let banded = function Workload.Train_spec | Workload.Ref_spec -> true | _ -> false

let max_row = 12

let build_input input =
  let n = rows_of input in
  let seed = match input with Workload.Train | Workload.Train_spec -> 11 | _ -> 42 in
  let rng = Xinv_util.Prng.create ~seed in
  let rowlen = Array.init n (fun _ -> 6 + Xinv_util.Prng.int rng 7) in
  let rowstart = Array.make n 0 in
  for t = 1 to n - 1 do
    rowstart.(t) <- rowstart.(t - 1) + rowlen.(t - 1)
  done;
  let nnz = rowstart.(n - 1) + rowlen.(n - 1) in
  let m = if banded input then max_row * n else nnz in
  let col = Array.make nnz 0 in
  (* Fresh columns are drawn through a permutation so they spread uniformly
     over the column space (and hence over memory partitions). *)
  let perm = Wl_util.permutation rng nnz in
  let fresh = ref 0 in
  for t = 0 to n - 1 do
    let len = rowlen.(t) in
    let cols =
      if banded input then
        (* Banded, column-major: rows touch pairwise-disjoint columns that
           spread across the whole column space (and hence across memory
           partitions). *)
        Array.init len (fun j -> (j * n) + t)
      else
        (* Mostly fresh columns; with probability 72.4% one column of the
           row is reused from an earlier row — Figure 3.1's manifest rate
           for the update dependence. *)
        Array.init len (fun k ->
            if k = 0 && t > 0 && Xinv_util.Prng.chance rng 0.724 then
              col.(Xinv_util.Prng.int rng rowstart.(t))
            else begin
              let c = perm.(!fresh) in
              incr fresh;
              c
            end)
    in
    Array.blit cols 0 col rowstart.(t) len
  done;
  let c0 = Array.init m (fun i -> float_of_int (i mod 251)) in
  Ir.Memory.create
    [
      Ir.Memory.Ints ("rowlen", rowlen);
      Ir.Memory.Ints ("rowstart", rowstart);
      Ir.Memory.Ints ("col", col);
      Ir.Memory.Floats ("C", c0);
    ]

let build_program () =
  let col_expr = E.ld "col" E.(ld "rowstart" o + i) in
  let col = Wl_util.index col_expr in
  let update =
    Ir.Stmt.make
      ~reads:[ Ir.Access.make "C" col_expr ]
      ~writes:[ Ir.Access.make "C" col_expr ]
      ~cost:(fun env -> Wl_util.jittered ~base:900. ~salt:3 env)
      ~exec:(fun env ->
        let ci = col env in
        let cur = Ir.Memory.get_float env.Ir.Env.mem "C" ci in
        let k =
          float_of_int (((env.Ir.Env.t_outer * 31) + env.Ir.Env.j_inner) mod 97)
        in
        Ir.Memory.set_float env.Ir.Env.mem "C" ci (Wl_util.mix cur k))
      "update(&C[col[rs+j]])"
  in
  let bounds =
    Ir.Stmt.make
      ~reads:[ Ir.Access.make "rowstart" E.o; Ir.Access.make "rowlen" E.o ]
      ~cost:(Ir.Stmt.fixed_cost 100.)
      "start=A[i]; end=B[i]"
  in
  let trip env = Ir.Memory.get_int env.Ir.Env.mem "rowlen" env.Ir.Env.t_outer in
  Ir.Program.make ~name:"CG" ~outer_trip:(rows_of Workload.Ref)
    [ Ir.Program.inner ~pre:[ bounds ] ~label:"sparse" ~trip [ update ] ]

(* The train input has fewer rows than the program's outer trip; build one
   program per arity.  Trip counts and data always come from the
   environment, so the statements are shared safely. *)
let make () =
  let base = lazy (build_program ()) in
  let program =
    Wl_util.memo_by rows_of (fun input ->
        { (Lazy.force base) with Ir.Program.outer_trip = rows_of input })
  in
  {
    Workload.name = "CG";
    suite = "NAS";
    func = "sparse";
    exec_pct = 12.2;
    program;
    fresh_env =
      (fun input ->
        let mem = build_input input in
        Ir.Env.make mem);
    plan = [ ("sparse", Xinv_parallel.Intra.Localwrite) ];
    mem_partition = true;
    domore_expected = true;
    speccross_expected = true;
  }
