module Fp = Xinv_ir.Footprint

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

let owns ~threads ~tid env (t : Fp.touch) =
  Array.exists (fun w -> Fp.owner ~threads env w = tid) t.Fp.writes

let executor ~threads env body =
  let low w (t : Fp.touch) =
    Array.fold_left (fun w a -> Stdlib.min w (Fp.owner ~threads env a)) w t.Fp.writes
  in
  match Array.fold_left low max_int body with w when w = max_int -> 0 | w -> w

let stripe ~nlocks ~total_words env (t : Fp.touch) =
  if t.Fp.stmt.Xinv_ir.Stmt.commutes && Array.length t.Fp.writes > 0 then
    Some (Fp.addr env t.Fp.writes.(0) * nlocks / Stdlib.max 1 total_words)
  else None

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

let exec_doall ctx env body =
  Array.iter (fun (t : Fp.touch) -> exec_stmt ctx env t.Fp.stmt) body

let exec_doany ctx env body =
  Array.iter
    (fun (t : Fp.touch) ->
      match stripe ~nlocks:ctx.nlocks ~total_words:ctx.total_words env t with
      | Some k -> Xinv_sim.Mutex.with_lock ctx.locks.(k) (fun () -> exec_stmt ctx env t.Fp.stmt)
      | None -> exec_stmt ctx env t.Fp.stmt)
    body

let exec_localwrite ctx env body =
  (* Determine whether this thread owns any write of the iteration; the
     iteration's lowest owner applies the non-writing (traversal)
     statements. *)
  let threads = ctx.threads in
  let mine = Array.exists (owns ~threads ~tid:ctx.tid env) body in
  let executor = executor ~threads env body in
  Array.iter
    (fun (t : Fp.touch) ->
      let s = t.Fp.stmt in
      if Array.length t.Fp.writes = 0 then begin
        (* Redundant computation on every thread; semantics applied once. *)
        let cat = if mine then Xinv_sim.Category.Work else Xinv_sim.Category.Redundant in
        let wf = Xinv_sim.Machine.work_factor ctx.machine ~threads in
        Xinv_sim.Proc.advance ~label:s.Xinv_ir.Stmt.name cat (wf *. s.Xinv_ir.Stmt.cost env);
        if ctx.tid = executor then s.Xinv_ir.Stmt.exec env
      end
      else begin
        (* All writes of a statement fall in one owner's partition. *)
        let o = Fp.owner ~threads env t.Fp.writes.(0) in
        assert (Array.for_all (fun b -> Fp.owner ~threads env b = o) t.Fp.writes);
        if o = ctx.tid then exec_stmt ctx env s
        else Xinv_sim.Proc.advance ~label:"own?" Xinv_sim.Category.Redundant (visit_cost s)
      end)
    body

let exec_spec_doall ctx env body =
  let accesses =
    Array.fold_left
      (fun acc (t : Fp.touch) -> acc + Array.length t.Fp.reads + Array.length t.Fp.writes)
      0 body
  in
  Xinv_sim.Proc.advance ~label:"validate" Xinv_sim.Category.Runtime
    (ctx.machine.Xinv_sim.Machine.sig_per_access *. float_of_int accesses);
  exec_doall ctx env body;
  (* Commit bookkeeping (version check + publish). *)
  Xinv_sim.Proc.advance ~label:"commit" Xinv_sim.Category.Runtime 10.

let exec_iteration tech ctx env body =
  match tech with
  | Doall -> exec_doall ctx env body
  | Doany -> exec_doany ctx env body
  | Localwrite -> exec_localwrite ctx env body
  | Spec_doall -> exec_spec_doall ctx env body
