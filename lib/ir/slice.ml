type t = {
  accesses : Access.t list;
  reads : Access.t list;
  writes : Access.t list;
  index_arrays : string list;
  node_count : int;
}

type verdict = Sliceable of t | Inapplicable of string

let compute_addr (part : Partition.t) (pdg : Pdg.t) =
  let worker = Partition.worker_stmts part pdg in
  if worker = [] then Inapplicable "no worker statements (region is sequential)"
  else if List.exists (fun s -> s.Stmt.side_effect) worker then
    Inapplicable "worker statement has side effects"
  else begin
    let accesses = List.concat_map Stmt.accesses worker in
    let writes = List.concat_map (fun (s : Stmt.t) -> s.Stmt.writes) worker in
    let reads = List.concat_map (fun (s : Stmt.t) -> s.Stmt.reads) worker in
    let index_arrays =
      List.concat_map Stmt.index_arrays worker |> List.sort_uniq String.compare
    in
    let written_by_workers =
      List.concat_map
        (fun s -> List.map (fun (a : Access.t) -> a.Access.base) s.Stmt.writes)
        worker
      |> List.sort_uniq String.compare
    in
    let tainted =
      List.filter (fun a -> List.mem a written_by_workers) index_arrays
    in
    if tainted <> [] then
      Inapplicable
        (Printf.sprintf "address computation reads arrays updated by workers: %s"
           (String.concat ", " tainted))
    else
      let node_count =
        List.fold_left
          (fun acc (a : Access.t) -> acc + Expr.size a.Access.index)
          0 accesses
      in
      Sliceable { accesses; reads; writes; index_arrays; node_count }
  end

let of_stmts stmts =
  let accesses = List.concat_map Stmt.accesses stmts in
  let reads = List.concat_map (fun (s : Stmt.t) -> s.Stmt.reads) stmts in
  let writes = List.concat_map (fun (s : Stmt.t) -> s.Stmt.writes) stmts in
  let index_arrays =
    List.concat_map Stmt.index_arrays stmts |> List.sort_uniq String.compare
  in
  let node_count =
    List.fold_left
      (fun acc (a : Access.t) -> acc + Expr.size a.Access.index)
      0 accesses
  in
  { accesses; reads; writes; index_arrays; node_count }

let cost_per_iter s =
  (2.0 *. float_of_int (List.length s.accesses))
  +. (1.5 *. float_of_int s.node_count)

let guard_ratio s (p : Program.t) env =
  let samples = ref [] in
  let t_max = Stdlib.min 2 (p.Program.outer_trip - 1) in
  for t = 0 to t_max do
    let env_t = Env.with_outer env t in
    List.iter
      (fun (il : Program.inner) ->
        let trip = il.Program.trip env_t in
        for j = 0 to Stdlib.min 7 (trip - 1) do
          let env_j = Env.with_inner env_t j in
          samples := Program.iteration_cost p il env_j :: !samples
        done)
      p.Program.inners
  done;
  let avg = Xinv_util.Stats.mean !samples in
  if avg <= 0. then infinity else cost_per_iter s /. avg

let resolve s mem = (Footprint.sites mem s.reads, Footprint.sites mem s.writes)
