(* Running the DOMORE compile-time pipeline by hand on a sparse-update
   kernel: build the PDG, partition into scheduler and workers, generate the
   computeAddr slice, inspect the generated pseudo-code, and execute.

   The kernel scatters updates through an index array the compiler cannot
   analyze — ~60% of rows collide with an earlier row, so speculation would
   misspeculate constantly, while DOMORE synchronizes exactly the colliding
   iterations.

     dune exec examples/sparse_solver.exe
*)

module Ir = Xinv_ir
module E = Xinv_ir.Expr
module Dm = Xinv_domore
module Par = Xinv_parallel

let rows = 300

let row_len = 8

let build_input () =
  let rng = Xinv_util.Prng.create ~seed:2024 in
  let nnz = rows * row_len in
  let col = Array.make nnz 0 in
  let perm = Array.init nnz (fun i -> i) in
  Xinv_util.Prng.shuffle rng perm;
  let fresh = ref 0 in
  for t = 0 to rows - 1 do
    for k = 0 to row_len - 1 do
      col.((t * row_len) + k) <-
        (if k = 0 && t > 0 && Xinv_util.Prng.chance rng 0.6 then
           col.(Xinv_util.Prng.int rng (t * row_len))
         else begin
           incr fresh;
           perm.(!fresh - 1)
         end)
    done
  done;
  Ir.Memory.create
    [
      Ir.Memory.Ints ("col", col);
      Ir.Memory.Floats ("x", Array.init nnz (fun i -> float_of_int (i mod 211)));
    ]

let col_at = E.ld "col" E.((o * c row_len) + i)

let col = Xinv_workloads.Wl_util.index col_at

let update =
  Ir.Stmt.make
    ~reads:[ Ir.Access.make "x" col_at ]
    ~writes:[ Ir.Access.make "x" col_at ]
    ~cost:(Ir.Stmt.fixed_cost 1100.)
    ~exec:(fun env ->
      let mem = env.Ir.Env.mem in
      let c = col env in
      let v = Ir.Memory.get_float mem "x" c in
      Ir.Memory.set_float mem "x" c (Float.rem ((3. *. v) +. 1.) 1048576.0))
    "x[col[r,k]] = relax(x)"

let program =
  Ir.Program.make ~name:"sparse-solver" ~outer_trip:rows
    [ Ir.Program.inner ~label:"row" ~trip:(Ir.Program.const_trip row_len) [ update ] ]

let () =
  let env = Ir.Env.make (build_input ()) in

  (* Compile-time pipeline, step by step. *)
  let pdg = Ir.Pdg.build program in
  Printf.printf "PDG: %d statements, %d dependence edges\n"
    (List.length pdg.Ir.Pdg.stmts) (List.length pdg.Ir.Pdg.edges);
  let part = Ir.Partition.compute program pdg in
  Printf.printf "partition: %d scheduler stmts, %d worker stmts (pipeline ok: %b)\n"
    (List.length (Ir.Partition.scheduler_stmts part pdg))
    (List.length (Ir.Partition.worker_stmts part pdg))
    (Ir.Partition.pipeline_ok part pdg);
  (match Ir.Slice.compute_addr part pdg with
  | Ir.Slice.Sliceable slice ->
      Printf.printf "computeAddr: %d accesses through %s (%.0f cycles/iteration)\n"
        (List.length slice.Ir.Slice.accesses)
        (String.concat ", " slice.Ir.Slice.index_arrays)
        (Ir.Slice.cost_per_iter slice)
  | Ir.Slice.Inapplicable r -> Printf.printf "slice rejected: %s\n" r);

  match Ir.Mtcg.generate program env with
  | Ir.Mtcg.Inapplicable r -> Printf.printf "DOMORE inapplicable: %s\n" r
  | Ir.Mtcg.Plan plan ->
      print_endline "\ngenerated multithreaded code:";
      print_endline (Ir.Mtcg.render plan);

      (* Sequential baseline on a second copy of the state. *)
      let seq_env = Ir.Env.make (build_input ()) in
      let seq_cost = Ir.Seq_interp.run program seq_env in

      List.iter
        (fun workers ->
          let env = Ir.Env.make (build_input ()) in
          let config =
            {
              (Dm.Domore.default_config ~workers) with
              Dm.Domore.policy = Dm.Policy.Mem_partition;
            }
          in
          let r = Dm.Domore.run ~config ~plan program env in
          assert (Ir.Memory.equal seq_env.Ir.Env.mem env.Ir.Env.mem);
          Printf.printf
            "DOMORE with %2d workers: %5.2fx (%d dynamic sync conditions over %d tasks)\n"
            workers
            (Par.Run.speedup ~seq_cost r)
            r.Par.Run.checks r.Par.Run.tasks)
        [ 3; 7; 15; 23 ]
