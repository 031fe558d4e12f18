type violation = {
  stmt : string;
  write : bool;
  arr : string;
  idx : int;
  t_outer : int;
  j_inner : int;
}

let pp_violation ppf v =
  Format.fprintf ppf "%s: undeclared %s of %s[%d] at (t=%d, j=%d)" v.stmt
    (if v.write then "write" else "read")
    v.arr v.idx v.t_outer v.j_inner

(* The declared footprint of a statement in a context, as (arr, idx) pairs.
   Reads include index-array loads; evaluating the declaration itself also
   reads memory, so evaluation happens before the observer is installed. *)
let declared env (t : Footprint.touch) =
  let at = Array.fold_right (fun (s : Footprint.site) l -> (s.name, s.index env) :: l) in
  (at t.Footprint.reads (at t.Footprint.loads []), at t.Footprint.writes [])

let check env (t : Footprint.touch) =
  let s = t.Footprint.stmt in
  let reads, writes = declared env t in
  let out = ref [] in
  let observer ~write arr idx =
    let ok = if write then List.mem (arr, idx) writes else List.mem (arr, idx) reads in
    if not ok then
      out :=
        {
          stmt = s.Stmt.name;
          write;
          arr;
          idx;
          t_outer = env.Env.t_outer;
          j_inner = env.Env.j_inner;
        }
        :: !out
  in
  Memory.set_observer (Some observer) env.Env.mem;
  Fun.protect
    ~finally:(fun () -> Memory.set_observer None env.Env.mem)
    (fun () -> s.Stmt.exec env);
  List.rev !out

let stmt env s = check env (Footprint.touch env.Env.mem s)

let program ?(max_outer = max_int) ?(max_inner = max_int) (p : Program.t) env =
  let out = ref [] in
  let inners = Footprint.program env.Env.mem p in
  for t = 0 to Stdlib.min max_outer p.Program.outer_trip - 1 do
    let env_t = Env.with_outer env t in
    List.iter
      (fun ((il : Program.inner), pre, body) ->
        Array.iter (fun s -> out := check env_t s @ !out) pre;
        let trip = il.Program.trip env_t in
        for j = 0 to Stdlib.min max_inner trip - 1 do
          let env_j = Env.with_inner env_t j in
          Array.iter (fun s -> out := check env_j s @ !out) body
        done)
      inners
  done;
  List.rev !out
