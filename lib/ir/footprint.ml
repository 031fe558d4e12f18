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

(* One access: the array's name, flat base and size, resolved once, and
   the index evaluated per iteration. *)
type site = { name : string; base : int; size : int; index : Expr.t }

let site mem name index =
  { name; base = Memory.base mem name; size = Memory.size mem name; index }

let sites mem accesses =
  Array.of_list (List.map (fun (a : Access.t) -> site mem a.Access.base a.Access.index) accesses)

let index env s =
  let i = Expr.eval env s.index in
  if i < 0 || i >= s.size then
    invalid_arg (Printf.sprintf "Footprint: %s[%d] out of bounds (size %d)" s.name i s.size);
  i

let addr env s = s.base + index env s

type feeder = site array

let feeder ~hot mem (il : Program.inner) =
  List.concat_map
    (fun (s : Stmt.t) ->
      let accesses = Stmt.accesses s in
      let direct =
        List.filter_map
          (fun (a : Access.t) ->
            if hot a.Access.base then Some (site mem a.Access.base a.Access.index) else None)
          accesses
      in
      let idx =
        List.concat_map
          (fun (a : Access.t) ->
            List.filter_map
              (fun (arr, ix) -> if hot arr then Some (site mem arr ix) else None)
              (Expr.loads a.Access.index))
          accesses
      in
      direct @ idx)
    il.Program.body
  |> Array.of_list

let feed fd env sink =
  for k = 0 to Array.length fd - 1 do
    sink (addr env fd.(k))
  done
