let reads env (s : Stmt.t) =
  let direct = List.map (fun a -> Access.addr env env.Env.mem a) s.Stmt.reads in
  let idx =
    List.concat_map
      (fun (a : Access.t) ->
        List.map
          (fun (arr, ix) -> Memory.addr env.Env.mem arr (Expr.eval env ix))
          (Expr.loads a.Access.index))
      (Stmt.accesses s)
  in
  direct @ idx

let writes env (s : Stmt.t) =
  List.map (fun a -> Access.addr env env.Env.mem a) s.Stmt.writes

let all env s = reads env s @ writes env s

let body env (il : Program.inner) = List.concat_map (all env) il.Program.body

let body_filtered ~hot env (il : Program.inner) =
  List.concat_map
    (fun (s : Stmt.t) ->
      let direct =
        List.filter_map
          (fun (a : Access.t) ->
            if hot a.Access.base then Some (Access.addr env env.Env.mem a) else None)
          (Stmt.accesses s)
      in
      let idx =
        List.concat_map
          (fun (a : Access.t) ->
            List.filter_map
              (fun (arr, ix) ->
                if hot arr then Some (Memory.addr env.Env.mem arr (Expr.eval env ix))
                else None)
              (Expr.loads a.Access.index))
          (Stmt.accesses s)
      in
      direct @ idx)
    il.Program.body
