type plan = {
  program : Program.t;
  partition : Partition.t;
  pdg : Pdg.t;
  slice : Slice.t;
  slices : (string * Slice.t) list;
  scheduler_extra : Stmt.t list;
  guard_ratio : float;
}

type verdict = Plan of plan | Inapplicable of string

(* The scheduler runs ahead of the workers, so a sequential-region write that
   a worker later reads must land in a distinct location per outer iteration
   (otherwise the real DOMORE would forward the value over the queue, which
   this model does not implement). *)
let forwarding_hazard (p : Program.t) (part : Partition.t) (pdg : Pdg.t) =
  let pre = Partition.scheduler_stmts part pdg in
  let bodies = Partition.worker_stmts part pdg in
  ignore p;
  List.exists
    (fun (s : Stmt.t) ->
      List.exists
        (fun (w : Access.t) ->
          List.exists
            (fun (b : Stmt.t) ->
              List.exists (fun a -> Access.may_conflict w a) (Stmt.accesses b))
            bodies
          &&
          match Affine.of_expr w.Access.index with
          | Some f -> f.Affine.co = 0
          | None -> true)
        s.Stmt.writes)
    pre

let generate ?(guard_threshold = 0.9) (p : Program.t) env =
  let pdg = Pdg.build p in
  let partition = Partition.compute p pdg in
  assert (Partition.pipeline_ok partition pdg);
  if forwarding_hazard p partition pdg then
    Inapplicable "scheduler-to-worker value forwarding not representable"
  else
  match Slice.compute_addr partition pdg with
  | Slice.Inapplicable reason -> Inapplicable reason
  | Slice.Sliceable slice ->
      let ratio = Slice.guard_ratio slice p env in
      if ratio > guard_threshold then
        Inapplicable
          (Printf.sprintf
             "performance guard: computeAddr costs %.0f%% of a worker iteration" (100. *. ratio))
      else
        let scheduler_extra =
          List.filter
            (fun s -> List.mem s.Stmt.sid partition.Partition.moved)
            (Program.body_stmts p)
        in
        let slices =
          List.map
            (fun (il : Program.inner) ->
              let workers =
                List.filter
                  (fun (s : Stmt.t) ->
                    Partition.side_of partition s.Stmt.sid = Partition.Worker)
                  il.Program.body
              in
              (il.Program.ilabel, Slice.of_stmts workers))
            p.Program.inners
        in
        Plan
          { program = p; partition; pdg; slice; slices; scheduler_extra; guard_ratio = ratio }

let slice_for plan label =
  match List.assoc_opt label plan.slices with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Mtcg.slice_for: unknown inner %s" label)

let sites_for plan mem =
  let resolved = List.map (fun (label, s) -> (label, Slice.resolve s mem)) plan.slices in
  fun label ->
    match List.assoc_opt label resolved with
    | Some r -> r
    | None -> invalid_arg (Printf.sprintf "Mtcg.sites_for: unknown inner %s" label)

let render plan =
  let b = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "void scheduler() {\n";
  pf "  iternum = 0;\n";
  pf "  for (t = 0; t < %d; t++) {\n" plan.program.Program.outer_trip;
  List.iter
    (fun (il : Program.inner) ->
      List.iter
        (fun s ->
          if Partition.side_of plan.partition s.Stmt.sid = Partition.Scheduler then
            pf "    %s;                     /* sequential region */\n" s.Stmt.name)
        il.Program.pre;
      pf "    for (j = 0; j < trip_%s(t); j++) {\n" il.Program.ilabel;
      List.iter
        (fun (a : Access.t) ->
          pf "      addr_set += &%s[%s];   /* computeAddr */\n" a.Access.base
            (Expr.to_string a.Access.index))
        plan.slice.Slice.accesses;
      pf "      tid = schedule(iternum, addr_set);\n";
      pf "      schedulerSync(iternum, tid, queue[tid], addr_set);\n";
      pf "      produce(queue[tid], iteration j of %s);\n" il.Program.ilabel;
      pf "      iternum++;\n";
      pf "    }\n")
    plan.program.Program.inners;
  pf "  }\n";
  pf "  produce_to_all(END_TOKEN);\n";
  pf "}\n\n";
  pf "void worker() {\n";
  pf "  while (1) {\n";
  pf "    cond = consume();\n";
  pf "    if (cond == END_TOKEN) return;\n";
  pf "    while (cond != NO_SYNC) {\n";
  pf "      wait(latestFinished[cond.tid] >= cond.iter);   /* workerSync */\n";
  pf "      cond = consume();\n";
  pf "    }\n";
  List.iter
    (fun s ->
      if Partition.side_of plan.partition s.Stmt.sid = Partition.Worker then
        pf "    %s;                       /* doWork */\n" s.Stmt.name)
    (Program.body_stmts plan.program);
  pf "    latestFinished[self] = cond.iter;\n";
  pf "  }\n";
  pf "}\n";
  Buffer.contents b
