type technique = Doall | Doany | Localwrite | Spec_doall

let name = function
  | Doall -> "DOALL"
  | Doany -> "DOANY"
  | Localwrite -> "LOCALWRITE"
  | Spec_doall -> "Spec-DOALL"

let of_name s =
  match String.uppercase_ascii s with
  | "DOALL" -> Some Doall
  | "DOANY" -> Some Doany
  | "LOCALWRITE" -> Some Localwrite
  | "SPEC-DOALL" | "SPECDOALL" -> Some Spec_doall
  | _ -> None

let visits_all_iterations = function Localwrite -> true | _ -> false

type ctx = {
  machine : Xinv_sim.Machine.t;
  threads : int;
  tid : int;
  locks : Xinv_sim.Mutex.t array;
  nlocks : int;
  total_words : int;
}

let make_ctx ~machine ~threads ~tid ~locks ~total_words =
  { machine; threads; tid; locks; nlocks = Array.length locks; total_words }

let owner_of ~threads env (a : Xinv_ir.Access.t) =
  let idx = Xinv_ir.Expr.eval env a.Xinv_ir.Access.index in
  let size = Xinv_ir.Memory.size env.Xinv_ir.Env.mem a.Xinv_ir.Access.base in
  assert (idx >= 0 && idx < size);
  idx * threads / size

let rec owns_any ~threads ~tid env = function
  | [] -> false
  | a :: rest -> owner_of ~threads env a = tid || owns_any ~threads ~tid env rest

let owns ~threads ~tid env (s : Xinv_ir.Stmt.t) =
  owns_any ~threads ~tid env s.Xinv_ir.Stmt.writes

let executor ~threads env (il : Xinv_ir.Program.inner) =
  let low = ref max_int in
  List.iter
    (fun (s : Xinv_ir.Stmt.t) ->
      List.iter
        (fun a -> low := Stdlib.min !low (owner_of ~threads env a))
        s.Xinv_ir.Stmt.writes)
    il.Xinv_ir.Program.body;
  if !low = max_int then 0 else !low

let lock_index ~nlocks ~total_words env (a : Xinv_ir.Access.t) =
  Xinv_ir.Access.addr env env.Xinv_ir.Env.mem a * nlocks / Stdlib.max 1 total_words

let exec_stmt ctx env (s : Xinv_ir.Stmt.t) =
  let wf = Xinv_sim.Machine.work_factor ctx.machine ~threads:ctx.threads in
  Xinv_sim.Proc.work ~label:s.Xinv_ir.Stmt.name (wf *. s.Xinv_ir.Stmt.cost env);
  s.Xinv_ir.Stmt.exec env

(* Cost of evaluating the write addresses of a statement (the LOCALWRITE
   ownership check every thread performs on every iteration). *)
let visit_cost (s : Xinv_ir.Stmt.t) =
  List.fold_left
    (fun acc (a : Xinv_ir.Access.t) ->
      acc +. 2.0 +. (1.5 *. float_of_int (Xinv_ir.Expr.size a.Xinv_ir.Access.index)))
    0. s.Xinv_ir.Stmt.writes

let exec_doall ctx env (il : Xinv_ir.Program.inner) =
  List.iter (exec_stmt ctx env) il.Xinv_ir.Program.body

let exec_doany ctx env (il : Xinv_ir.Program.inner) =
  List.iter
    (fun (s : Xinv_ir.Stmt.t) ->
      if s.Xinv_ir.Stmt.commutes && s.Xinv_ir.Stmt.writes <> [] then begin
        let m =
          ctx.locks.(lock_index ~nlocks:ctx.nlocks ~total_words:ctx.total_words env
                       (List.hd s.Xinv_ir.Stmt.writes))
        in
        Xinv_sim.Mutex.with_lock m (fun () -> exec_stmt ctx env s)
      end
      else exec_stmt ctx env s)
    il.Xinv_ir.Program.body

let exec_localwrite ctx env (il : Xinv_ir.Program.inner) =
  (* Determine whether this thread owns any write of the iteration; the
     iteration's lowest owner applies the non-writing (traversal)
     statements. *)
  let threads = ctx.threads in
  let mine = List.exists (owns ~threads ~tid:ctx.tid env) il.Xinv_ir.Program.body in
  let executor = executor ~threads env il in
  List.iter
    (fun (s : Xinv_ir.Stmt.t) ->
      match s.Xinv_ir.Stmt.writes with
      | [] ->
          (* Redundant computation on every thread; semantics applied once. *)
          let cat = if mine then Xinv_sim.Category.Work else Xinv_sim.Category.Redundant in
          let wf = Xinv_sim.Machine.work_factor ctx.machine ~threads in
          Xinv_sim.Proc.advance ~label:s.Xinv_ir.Stmt.name cat (wf *. s.Xinv_ir.Stmt.cost env);
          if ctx.tid = executor then s.Xinv_ir.Stmt.exec env
      | a :: rest ->
          (* All writes of a statement fall in one owner's partition. *)
          let o = owner_of ~threads env a in
          assert (List.for_all (fun b -> owner_of ~threads env b = o) rest);
          if o = ctx.tid then exec_stmt ctx env s
          else
            Xinv_sim.Proc.advance ~label:"own?" Xinv_sim.Category.Redundant (visit_cost s))
    il.Xinv_ir.Program.body

let exec_spec_doall ctx env (il : Xinv_ir.Program.inner) =
  let accesses =
    List.fold_left
      (fun acc (s : Xinv_ir.Stmt.t) -> acc + List.length (Xinv_ir.Stmt.accesses s))
      0 il.Xinv_ir.Program.body
  in
  Xinv_sim.Proc.advance ~label:"validate" Xinv_sim.Category.Runtime
    (ctx.machine.Xinv_sim.Machine.sig_per_access *. float_of_int accesses);
  List.iter (exec_stmt ctx env) il.Xinv_ir.Program.body;
  (* Commit bookkeeping (version check + publish). *)
  Xinv_sim.Proc.advance ~label:"commit" Xinv_sim.Category.Runtime 10.

let exec_iteration tech ctx env il =
  match tech with
  | Doall -> exec_doall ctx env il
  | Doany -> exec_doany ctx env il
  | Localwrite -> exec_localwrite ctx env il
  | Spec_doall -> exec_spec_doall ctx env il
