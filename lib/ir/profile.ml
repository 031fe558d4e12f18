type scope = Within_invocation | Across_invocations

type dep = {
  src_sid : int;
  dst_sid : int;
  scope : scope;
  src_task : int;
  dst_task : int;
  involves_seq : bool;
}

type pair_stat = { within : int; across : int; outer_iters : int list }

type result = {
  deps : dep list;
  pairs : ((int * int) * pair_stat) list;
  min_task_distance : int option;
  total_tasks : int;
  total_invocations : int;
}

(* Last access bookkeeping per flat address. *)
type mark = { m_sid : int; m_task : int; m_inv : int; m_iter : int; m_seq : bool }

type state = {
  mutable events : dep list;
  mutable n_events : int;
  max_events : int;
  pairs : (int * int, pair_stat) Hashtbl.t;
  last_write : (int, mark) Hashtbl.t;
  last_read : (int, mark) Hashtbl.t;
  mutable min_dist : int option;
}

let record st ~outer (src : mark) (dst : mark) =
  if not (src.m_inv = dst.m_inv && src.m_iter = dst.m_iter && src.m_seq = dst.m_seq)
  then begin
    let scope = if src.m_inv = dst.m_inv then Within_invocation else Across_invocations in
    let involves_seq = src.m_seq || dst.m_seq in
    let key = (src.m_sid, dst.m_sid) in
    let cur =
      try Hashtbl.find st.pairs key
      with Not_found -> { within = 0; across = 0; outer_iters = [] }
    in
    let cur =
      match scope with
      | Within_invocation -> { cur with within = cur.within + 1 }
      | Across_invocations ->
          {
            cur with
            across = cur.across + 1;
            outer_iters =
              (match cur.outer_iters with
              | o :: _ when o = outer -> cur.outer_iters
              | _ -> outer :: cur.outer_iters);
          }
    in
    Hashtbl.replace st.pairs key cur;
    if scope = Across_invocations && not involves_seq then begin
      let d = dst.m_task - src.m_task in
      match st.min_dist with
      | Some m when m <= d -> ()
      | _ -> st.min_dist <- Some d
    end;
    if st.n_events < st.max_events then begin
      st.events <-
        {
          src_sid = src.m_sid;
          dst_sid = dst.m_sid;
          scope;
          src_task = src.m_task;
          dst_task = dst.m_task;
          involves_seq;
        }
        :: st.events;
      st.n_events <- st.n_events + 1
    end
  end

let visit st ~outer env (t : Footprint.touch) (mk : int -> mark) =
  let s = t.Footprint.stmt in
  let m = mk s.Stmt.sid in
  let from_write a = Option.iter (fun w -> record st ~outer w m) (Hashtbl.find_opt st.last_write a) in
  let read site =
    let addr = Footprint.addr env site in
    from_write addr;
    Hashtbl.replace st.last_read addr m
  in
  Array.iter read t.Footprint.reads;
  Array.iter read t.Footprint.loads;
  Array.iter
    (fun site ->
      let addr = Footprint.addr env site in
      from_write addr;
      (match Hashtbl.find_opt st.last_read addr with
      | Some r -> if r.m_sid <> s.Stmt.sid || r.m_task <> m.m_task then record st ~outer r m
      | None -> ());
      Hashtbl.replace st.last_write addr m)
    t.Footprint.writes;
  s.Stmt.exec env

let run ?(max_events = 100_000) (p : Program.t) env =
  let st =
    {
      events = [];
      n_events = 0;
      max_events;
      pairs = Hashtbl.create 64;
      last_write = Hashtbl.create 4096;
      last_read = Hashtbl.create 4096;
      min_dist = None;
    }
  in
  let inners = Footprint.program env.Env.mem p in
  let task = ref 0 in
  let inv = ref 0 in
  for t = 0 to p.Program.outer_trip - 1 do
    let env_t = Env.with_outer env t in
    List.iter
      (fun ((il : Program.inner), pre, body) ->
        Array.iter
          (fun s ->
            visit st ~outer:t env_t s (fun sid ->
                { m_sid = sid; m_task = !task; m_inv = !inv; m_iter = -1; m_seq = true }))
          pre;
        let trip = il.Program.trip env_t in
        for j = 0 to trip - 1 do
          let env_j = Env.with_inner env_t j in
          Array.iter
            (fun s ->
              visit st ~outer:t env_j s (fun sid ->
                  { m_sid = sid; m_task = !task; m_inv = !inv; m_iter = j; m_seq = false }))
            body;
          incr task
        done;
        incr inv)
      inners
  done;
  {
    deps = List.rev st.events;
    pairs = Hashtbl.fold (fun k v acc -> (k, v) :: acc) st.pairs [] |> List.sort compare;
    min_task_distance = st.min_dist;
    total_tasks = !task;
    total_invocations = !inv;
  }

let manifest_rate (result : result) (p : Program.t) ~src_sid ~dst_sid =
  match List.assoc_opt (src_sid, dst_sid) result.pairs with
  | None -> 0.
  | Some stat ->
      let distinct = List.sort_uniq compare stat.outer_iters in
      if p.Program.outer_trip <= 1 then 0.
      else float_of_int (List.length distinct) /. float_of_int (p.Program.outer_trip - 1)
