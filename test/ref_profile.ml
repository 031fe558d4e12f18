(* Naive dependence profiler (hash tables keyed by flat address, a list
   of outer iterations per pair): the executable specification
   [Xinv_ir.Profile.run] must match summary for summary.  It walks the
   same [Footprint.program] touches in the same order: a statement's
   reads, its index-array loads, then its writes, each checked against
   the address's last write, a write also against its last read. *)

module Ir = Xinv_ir
module Fp = Xinv_ir.Footprint

type mark = { m_sid : int; m_task : int; m_inv : int; m_iter : int; m_seq : bool }

type acc = { within : int; outer_iters : int list }

type state = {
  pairs : (int * int, acc) Hashtbl.t;
  last_write : (int, mark) Hashtbl.t;
  last_read : (int, mark) Hashtbl.t;
  mutable min_dist : int option;
}

let record st ~outer src dst =
  if not (src.m_inv = dst.m_inv && src.m_iter = dst.m_iter && src.m_seq = dst.m_seq)
  then begin
    let key = (src.m_sid, dst.m_sid) in
    let cur =
      try Hashtbl.find st.pairs key with Not_found -> { within = 0; outer_iters = [] }
    in
    if src.m_inv = dst.m_inv then Hashtbl.replace st.pairs key { cur with within = cur.within + 1 }
    else begin
      Hashtbl.replace st.pairs key { cur with outer_iters = outer :: cur.outer_iters };
      if not (src.m_seq || dst.m_seq) then begin
        let d = dst.m_task - src.m_task in
        match st.min_dist with Some m when m <= d -> () | _ -> st.min_dist <- Some d
      end
    end
  end

let visit st ~outer env (t : Fp.touch) m =
  let s = t.Fp.stmt in
  let from_write a = Option.iter (fun w -> record st ~outer w m) (Hashtbl.find_opt st.last_write a) in
  let read site =
    let addr = Fp.addr env site in
    from_write addr;
    Hashtbl.replace st.last_read addr m
  in
  Array.iter read t.Fp.reads;
  Array.iter read t.Fp.loads;
  Array.iter
    (fun site ->
      let addr = Fp.addr env site in
      from_write addr;
      (match Hashtbl.find_opt st.last_read addr with
      | Some r -> if r.m_sid <> s.Ir.Stmt.sid || r.m_task <> m.m_task then record st ~outer r m
      | None -> ());
      Hashtbl.replace st.last_write addr m)
    t.Fp.writes;
  s.Ir.Stmt.exec env

let run (p : Ir.Program.t) env =
  let st =
    {
      pairs = Hashtbl.create 64;
      last_write = Hashtbl.create 4096;
      last_read = Hashtbl.create 4096;
      min_dist = None;
    }
  in
  let inners = Fp.program env.Ir.Env.mem p in
  let task = ref 0 and inv = ref 0 in
  let mark (t : Fp.touch) iter =
    { m_sid = t.Fp.stmt.Ir.Stmt.sid; m_task = !task; m_inv = !inv; m_iter = iter; m_seq = iter < 0 }
  in
  for o = 0 to p.Ir.Program.outer_trip - 1 do
    let env_o = Ir.Env.with_outer env o in
    List.iter
      (fun ((il : Ir.Program.inner), pre, body) ->
        Array.iter (fun t -> visit st ~outer:o env_o t (mark t (-1))) pre;
        for j = 0 to il.Ir.Program.trip env_o - 1 do
          let env_j = Ir.Env.with_inner env_o j in
          Array.iter (fun t -> visit st ~outer:o env_j t (mark t j)) body;
          incr task
        done;
        incr inv)
      inners
  done;
  let stat a =
    { Ir.Profile.within = a.within; outers = List.length (List.sort_uniq compare a.outer_iters) }
  in
  {
    Ir.Profile.pairs =
      Hashtbl.fold (fun k a acc -> (k, stat a) :: acc) st.pairs [] |> List.sort compare;
    min_task_distance = st.min_dist;
    total_tasks = !task;
    total_invocations = !inv;
  }
