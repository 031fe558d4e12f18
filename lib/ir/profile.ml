type pair_stat = { within : int; outers : int }

type result = {
  pairs : ((int * int) * pair_stat) list;
  min_task_distance : int option;
  total_tasks : int;
  total_invocations : int;
}

(* The last access to a flat address: statement, global task, invocation
   and inner iteration ([-1] in a sequential region). *)
type mark = { sid : int; task : int; inv : int; iter : int }

let never = { sid = -1; task = -1; inv = -1; iter = -1 }

(* One pair's running summary.  Outer iterations arrive in increasing
   order, so [last_outer] is enough to count each one once. *)
type tally = { mutable t_within : int; mutable t_outers : int; mutable last_outer : int }

type state = {
  pairs : (int * int, tally) Hashtbl.t;
  last_write : mark array;  (* per flat address; [never] = untouched *)
  last_read : mark array;
  mutable min_dist : int;  (* [max_int] = none *)
}

let record st ~outer src dst =
  if src != never && not (src.inv = dst.inv && src.iter = dst.iter) then begin
    let c =
      match Hashtbl.find_opt st.pairs (src.sid, dst.sid) with
      | Some c -> c
      | None ->
          let c = { t_within = 0; t_outers = 0; last_outer = -1 } in
          Hashtbl.add st.pairs (src.sid, dst.sid) c;
          c
    in
    if src.inv = dst.inv then c.t_within <- c.t_within + 1
    else begin
      if c.last_outer <> outer then begin
        c.t_outers <- c.t_outers + 1;
        c.last_outer <- outer
      end;
      if src.iter >= 0 && dst.iter >= 0 then
        st.min_dist <- Stdlib.min st.min_dist (dst.task - src.task)
    end
  end

let visit st ~outer env (t : Footprint.touch) m =
  let read site =
    let a = Footprint.addr env site in
    record st ~outer st.last_write.(a) m;
    st.last_read.(a) <- m
  in
  Array.iter read t.Footprint.reads;
  Array.iter read t.Footprint.loads;
  Array.iter
    (fun site ->
      let a = Footprint.addr env site in
      record st ~outer st.last_write.(a) m;
      let r = st.last_read.(a) in
      if r.sid <> m.sid || r.task <> m.task then record st ~outer r m;
      st.last_write.(a) <- m)
    t.Footprint.writes;
  t.Footprint.stmt.Stmt.exec env

let run (p : Program.t) env =
  let words = Memory.total_words env.Env.mem in
  let st =
    {
      pairs = Hashtbl.create 64;
      last_write = Array.make words never;
      last_read = Array.make words never;
      min_dist = max_int;
    }
  in
  let inners = Footprint.program env.Env.mem p in
  let task = ref 0 and inv = ref 0 in
  let mark (t : Footprint.touch) iter =
    { sid = t.Footprint.stmt.Stmt.sid; task = !task; inv = !inv; iter }
  in
  for o = 0 to p.Program.outer_trip - 1 do
    let env_o = Env.with_outer env o in
    List.iter
      (fun ((il : Program.inner), pre, body) ->
        Array.iter (fun t -> visit st ~outer:o env_o t (mark t (-1))) pre;
        for j = 0 to il.Program.trip env_o - 1 do
          let env_j = Env.with_inner env_o j in
          Array.iter (fun t -> visit st ~outer:o env_j t (mark t j)) body;
          incr task
        done;
        incr inv)
      inners
  done;
  {
    pairs =
      Hashtbl.fold
        (fun k c acc -> (k, { within = c.t_within; outers = c.t_outers }) :: acc)
        st.pairs []
      |> List.sort compare;
    min_task_distance = (if st.min_dist = max_int then None else Some st.min_dist);
    total_tasks = !task;
    total_invocations = !inv;
  }

let manifest_rate (result : result) (p : Program.t) ~src_sid ~dst_sid =
  match List.assoc_opt (src_sid, dst_sid) result.pairs with
  | Some stat when p.Program.outer_trip > 1 ->
      float_of_int stat.outers /. float_of_int (p.Program.outer_trip - 1)
  | _ -> 0.
