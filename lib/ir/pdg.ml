type kind = Intra | Cross_iter | Cross_invoc | Flow

type edge = { src : int; dst : int; kind : kind; carried_outer : bool }

type loc = { inner_idx : int; in_body : bool; ord : int }

type t = { stmts : (Stmt.t * loc) list; edges : edge list }

(* Reads of a statement for dependence purposes: declared reads plus a
   whole-array irregular access for every array loaded inside an index
   expression (the scheduler cannot know which element). *)
let eff_reads (s : Stmt.t) =
  let idx_reads =
    List.map (fun a -> Access.make a (Expr.Param "?")) (Stmt.index_arrays s)
  in
  s.Stmt.reads @ idx_reads

let eff_accesses s = eff_reads s @ s.Stmt.writes

let conflict s1 s2 =
  List.exists
    (fun w -> List.exists (fun a -> Access.may_conflict w a) (eff_accesses s2))
    s1.Stmt.writes

(* Do all conflicting access pairs stay within a single iteration? *)
let same_iteration_conflicts_only s1 s2 =
  List.for_all
    (fun (w : Access.t) ->
      List.for_all
        (fun (a : Access.t) ->
          (not (Access.may_conflict w a)) || Access.same_iteration_only w a)
        (eff_accesses s2))
    s1.Stmt.writes

let classify_pair (sa, (la : loc)) (sb, (lb : loc)) =
  (* [sa] precedes [sb] in program order. *)
  let edges = ref [] in
  let fwd = conflict sa sb || conflict sb sa in
  let back = fwd in
  if la.inner_idx = lb.inner_idx && la.in_body && lb.in_body then begin
    if fwd then
      if same_iteration_conflicts_only sa sb && same_iteration_conflicts_only sb sa
      then
        edges :=
          { src = sa.Stmt.sid; dst = sb.Stmt.sid; kind = Intra; carried_outer = false }
          :: !edges
      else begin
        edges :=
          { src = sa.Stmt.sid; dst = sb.Stmt.sid; kind = Cross_iter; carried_outer = false }
          :: { src = sb.Stmt.sid; dst = sa.Stmt.sid; kind = Cross_iter; carried_outer = false }
          :: !edges
      end
  end
  else begin
    (if conflict sa sb || conflict sb sa then
       let kind = if (not la.in_body) && lb.in_body && la.inner_idx = lb.inner_idx then Flow else Cross_invoc in
       edges :=
         { src = sa.Stmt.sid; dst = sb.Stmt.sid; kind; carried_outer = false } :: !edges);
    if back && conflict sb sa then
      (* The same conflict realized on a later outer iteration: a backedge. *)
      edges :=
        { src = sb.Stmt.sid; dst = sa.Stmt.sid; kind = Cross_invoc; carried_outer = true }
        :: !edges
  end;
  !edges

let self_edges (s, (l : loc)) =
  if l.in_body && conflict s s && not (same_iteration_conflicts_only s s) then
    [ { src = s.Stmt.sid; dst = s.Stmt.sid; kind = Cross_iter; carried_outer = false } ]
  else if (not l.in_body) && conflict s s then
    [ { src = s.Stmt.sid; dst = s.Stmt.sid; kind = Cross_invoc; carried_outer = true } ]
  else []

let stmt_table (p : Program.t) =
  List.concat
    (List.mapi
       (fun ii (il : Program.inner) ->
         List.map (fun s -> (s, ii, false)) il.Program.pre
         @ List.map (fun s -> (s, ii, true)) il.Program.body)
       p.Program.inners)
  |> List.mapi (fun ord (s, ii, in_body) -> (s, { inner_idx = ii; in_body; ord }))

let build (p : Program.t) =
  let stmts = stmt_table p in
  let edges = ref [] in
  List.iter (fun sl -> edges := self_edges sl @ !edges) stmts;
  let rec pairs = function
    | [] -> ()
    | a :: rest ->
        List.iter (fun b -> edges := classify_pair a b @ !edges) rest;
        pairs rest
  in
  pairs stmts;
  { stmts; edges = List.rev !edges }

let stmt_of t sid =
  match List.find_opt (fun (s, _) -> s.Stmt.sid = sid) t.stmts with
  | Some (s, _) -> s
  | None -> invalid_arg (Printf.sprintf "Pdg.stmt_of: unknown sid %d" sid)

let loc_of t sid =
  match List.find_opt (fun (s, _) -> s.Stmt.sid = sid) t.stmts with
  | Some (_, l) -> l
  | None -> invalid_arg (Printf.sprintf "Pdg.loc_of: unknown sid %d" sid)

let cross_iter_pairs t =
  t.edges
  |> List.filter_map (fun e -> if e.kind = Cross_iter then Some (e.src, e.dst) else None)
  |> List.sort_uniq compare

let has_cross_iter t ~inner_idx =
  List.exists
    (fun e ->
      e.kind = Cross_iter
      && (loc_of t e.src).inner_idx = inner_idx
      && (loc_of t e.dst).inner_idx = inner_idx)
    t.edges

let kind_str = function
  | Intra -> "intra"
  | Cross_iter -> "cross-iter"
  | Cross_invoc -> "cross-invoc"
  | Flow -> "flow"

let pp ppf t =
  Format.fprintf ppf "@[<v>PDG: %d stmts, %d edges@," (List.length t.stmts)
    (List.length t.edges);
  List.iter
    (fun e ->
      Format.fprintf ppf "  #%d -> #%d  [%s%s]@," e.src e.dst (kind_str e.kind)
        (if e.carried_outer then ", outer-carried" else ""))
    t.edges;
  Format.fprintf ppf "@]"

let to_graph t =
  let sids = Array.of_list (List.map (fun (s, _) -> s.Stmt.sid) t.stmts) in
  let idx_of = Hashtbl.create 16 in
  Array.iteri (fun i sid -> Hashtbl.replace idx_of sid i) sids;
  let n = Array.length sids in
  let adj = Array.make n [] in
  List.iter
    (fun e ->
      let i = Hashtbl.find idx_of e.src and j = Hashtbl.find idx_of e.dst in
      if not (List.mem j adj.(i)) then adj.(i) <- j :: adj.(i))
    t.edges;
  ({ Scc.nodes = n; succs = (fun i -> adj.(i)) }, sids)
