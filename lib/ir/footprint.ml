(* One access: the array's name, flat base and size, resolved once, and
   the index compiled once, evaluated per iteration. *)
type site = { name : string; base : int; size : int; index : Env.t -> int }

let site mem (a : Access.t) =
  let name = a.Access.base in
  { name; base = Memory.base mem name; size = Memory.size mem name;
    index = Expr.compile mem a.Access.index }

let sites mem accesses = Array.of_list (List.map (site mem) accesses)

let index env s =
  let i = s.index env in
  if i < 0 || i >= s.size then
    invalid_arg (Printf.sprintf "Footprint: %s[%d] out of bounds (size %d)" s.name i s.size);
  i

let addr env s = s.base + index env s

let owner ~threads env s = index env s * threads / s.size

type touch = { stmt : Stmt.t; reads : site array; loads : site array; writes : site array }

let touch mem (s : Stmt.t) =
  let loads = List.concat_map (fun (a : Access.t) -> Expr.loads a.Access.index) (Stmt.accesses s) in
  { stmt = s; reads = sites mem s.Stmt.reads; writes = sites mem s.Stmt.writes;
    loads = sites mem (List.map (fun (arr, ix) -> Access.make arr ix) loads) }

let touches mem stmts = Array.of_list (List.map (touch mem) stmts)

let program mem (p : Program.t) =
  List.map
    (fun (il : Program.inner) -> (il, touches mem il.Program.pre, touches mem il.Program.body))
    p.Program.inners

let bodies mem p =
  let tbl = List.map (fun (il, _, body) -> (il, body)) (program mem p) in
  fun il ->
    try List.assq il tbl with Not_found -> invalid_arg ("Footprint.bodies: " ^ il.Program.ilabel)

type feeder = site array

let feeder ~hot body =
  Array.to_list body
  |> List.concat_map (fun t -> List.concat_map Array.to_list [ t.reads; t.writes; t.loads ])
  |> List.filter (fun s -> hot s.name)
  |> Array.of_list

let feed fd env sink =
  for k = 0 to Array.length fd - 1 do
    sink (addr env fd.(k))
  done
