module Ir = Xinv_ir

type choice = { label : string; technique : Intra.technique; reason : string }

(* Cross-iteration edges restricted to one inner loop's body. *)
let cross_iter_edges (pdg : Ir.Pdg.t) ii =
  List.filter
    (fun (e : Ir.Pdg.edge) ->
      e.Ir.Pdg.kind = Ir.Pdg.Cross_iter
      && (Ir.Pdg.loc_of pdg e.Ir.Pdg.src).Ir.Pdg.inner_idx = ii
      && (Ir.Pdg.loc_of pdg e.Ir.Pdg.dst).Ir.Pdg.inner_idx = ii)
    pdg.Ir.Pdg.edges

let localwrite_ok (il : Ir.Program.inner) =
  List.for_all
    (fun (s : Ir.Stmt.t) -> List.length s.Ir.Stmt.writes <= 1)
    il.Ir.Program.body
  && List.exists (fun (s : Ir.Stmt.t) -> s.Ir.Stmt.writes <> []) il.Ir.Program.body

(* Did any cross-iteration dependence manifest within an invocation of this
   inner loop, according to the profile? *)
let profiled_within (profile : Ir.Profile.result option) (pdg : Ir.Pdg.t) ii =
  match profile with
  | None -> true (* unknown: assume they manifest *)
  | Some prof ->
      List.exists
        (fun ((src, dst), (stat : Ir.Profile.pair_stat)) ->
          stat.Ir.Profile.within > 0
          && (try
                (Ir.Pdg.loc_of pdg src).Ir.Pdg.inner_idx = ii
                && (Ir.Pdg.loc_of pdg dst).Ir.Pdg.inner_idx = ii
              with Invalid_argument _ -> false))
        prof.Ir.Profile.pairs

let choose ?profile (p : Ir.Program.t) =
  let pdg = Ir.Pdg.build p in
  List.mapi
    (fun ii (il : Ir.Program.inner) ->
      let label = il.Ir.Program.ilabel in
      let xiter = cross_iter_edges pdg ii in
      if xiter = [] then
        { label; technique = Intra.Doall; reason = "no cross-iteration dependence" }
      else begin
        let conflicting_sids =
          List.concat_map (fun (e : Ir.Pdg.edge) -> [ e.Ir.Pdg.src; e.Ir.Pdg.dst ]) xiter
          |> List.sort_uniq compare
        in
        let all_commute =
          List.for_all
            (fun sid -> (Ir.Pdg.stmt_of pdg sid).Ir.Stmt.commutes)
            conflicting_sids
        in
        if all_commute then
          { label; technique = Intra.Doany; reason = "conflicting updates commute" }
        else if not (profiled_within profile pdg ii) then
          {
            label;
            technique = Intra.Spec_doall;
            reason = "static may-dependences never manifest within an invocation";
          }
        else if localwrite_ok il then
          {
            label;
            technique = Intra.Localwrite;
            reason = "irregular writes partition by owner";
          }
        else
          failwith
            (Printf.sprintf "Plan.choose: inner loop %s not parallelizable" label)
      end)
    p.Ir.Program.inners

let speccross_sequential_regions (p : Ir.Program.t) =
  match
    List.find_opt
      (fun (s : Ir.Stmt.t) -> s.Ir.Stmt.writes <> [])
      (List.concat_map (fun (il : Ir.Program.inner) -> il.Ir.Program.pre) p.Ir.Program.inners)
  with
  | Some s ->
      Error (Printf.sprintf "sequential region statement %s writes memory" s.Ir.Stmt.name)
  | None -> Ok ()
