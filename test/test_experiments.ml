(* Tests for the experiment harness: registry lookup, id normalization, and
   the cheap renderers end-to-end. *)

module Exp = Xinv_experiments.Experiments
module Common = Xinv_experiments.Common
module Cx = Xinv_core.Crossinv
module Wl = Xinv_workloads

let test_registry_ids () =
  Alcotest.(check int) "eighteen experiments" 18 (List.length Exp.all);
  List.iter
    (fun id -> Alcotest.(check bool) ("find " ^ id) true ((Exp.find id).Exp.id = id))
    Exp.ids

let test_id_normalization () =
  Alcotest.(check string) "figure-5.2" "fig5.2" (Exp.find "figure-5.2").Exp.id;
  Alcotest.(check string) "bare number" "fig3.3" (Exp.find "3.3").Exp.id;
  Alcotest.(check string) "table5.1" "tab5.1" (Exp.find "table5.1").Exp.id;
  Alcotest.(check string) "case-insensitive" "fig5.6" (Exp.find "FIG5.6").Exp.id;
  Alcotest.check_raises "unknown id rejected"
    (Invalid_argument
       (Printf.sprintf "unknown experiment nope (known: %s)"
          (String.concat ", " Exp.ids)))
    (fun () -> ignore (Exp.find "nope"))

let test_fig1_4_renders () =
  let out = (Exp.find "fig1.4").Exp.render () in
  Alcotest.(check bool) "mentions barriers" true
    (Option.is_some (String.index_opt out 'b'));
  Alcotest.(check bool) "non-trivial output" true (String.length out > 400)

let test_fig2_2_shape () =
  let out = (Exp.find "fig2.2").Exp.render () in
  (* The dynamic-array variants must collapse to 1.00x. *)
  let occurrences needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i acc =
      if i + n > h then acc
      else if String.sub hay i n = needle then go (i + 1) (acc + 1)
      else go (i + 1) acc
    in
    go 0 0
  in
  Alcotest.(check int) "three collapsed bars" 3 (occurrences "1.00" out)

let test_sweep_and_render () =
  let wl = Wl.Registry.find "LLUBENCH" in
  let o = Common.speedup_at wl Cx.Barrier 4 in
  let s = Common.speedup o in
  Alcotest.(check bool) "sane speedup" true (s > 0.5 && s < 4.5);
  let s =
    { Common.label = "x"; points = List.map (fun n -> (n, 1.0)) Common.threads_axis }
  in
  let rendered = Common.render_series ~title:"t" [ s ] in
  Alcotest.(check bool) "one row per thread count" true
    (List.length (String.split_on_char '\n' rendered)
    = 3 + List.length Common.threads_axis)

let test_spec_input_selection () =
  Alcotest.(check bool) "CG uses banded input" true
    (Common.spec_input (Wl.Registry.find "CG") = Wl.Workload.Ref_spec);
  Alcotest.(check bool) "others use ref" true
    (Common.spec_input (Wl.Registry.find "JACOBI") = Wl.Workload.Ref)

let test_verification_gate () =
  (* speedup_at must raise on a diverging run: simulate by asking for an
     inapplicable technique through execute's failure path. *)
  match Common.speedup_at (Wl.Registry.find "LOOPDEP") Cx.Domore 4 with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected failure for inapplicable technique"

let suite =
  [
    Alcotest.test_case "registry ids" `Quick test_registry_ids;
    Alcotest.test_case "id normalization" `Quick test_id_normalization;
    Alcotest.test_case "fig1.4 renders" `Slow test_fig1_4_renders;
    Alcotest.test_case "fig2.2 collapse" `Slow test_fig2_2_shape;
    Alcotest.test_case "sweep and render" `Quick test_sweep_and_render;
    Alcotest.test_case "spec input selection" `Quick test_spec_input_selection;
    Alcotest.test_case "verification gate" `Quick test_verification_gate;
  ]
