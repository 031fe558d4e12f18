(* Tests for the benchmark workloads: determinism, dependence structure
   matching the dissertation's description, applicability matching
   Table 5.1, and end-to-end correctness through the public facade. *)

module Ir = Xinv_ir
module Wl = Xinv_workloads
module Cx = Xinv_core.Crossinv

let all = Wl.Registry.all ()

let test_registry () =
  Alcotest.(check int) "eleven workloads" 11 (List.length all);
  Alcotest.(check int) "six DOMORE benchmarks" 6 (List.length (Wl.Registry.domore_set ()));
  Alcotest.(check int) "eight SPECCROSS benchmarks" 8
    (List.length (Wl.Registry.speccross_set ()));
  Alcotest.(check bool) "find case-insensitive" true
    ((Wl.Registry.find "cg").Wl.Workload.name = "CG");
  Alcotest.check_raises "unknown workload"
    (Invalid_argument "Registry.find: unknown workload NOPE") (fun () ->
      ignore (Wl.Registry.find "NOPE"))

let test_footprints_sound () =
  (* Every workload's exec closures must stay within their declared
     footprints: all compiler decisions depend on it. *)
  List.iter
    (fun (wl : Wl.Workload.t) ->
      let p = wl.Wl.Workload.program Wl.Workload.Train in
      let env = wl.Wl.Workload.fresh_env Wl.Workload.Train in
      match Ir.Validate.program ~max_outer:6 p env with
      | [] -> ()
      | v :: _ ->
          Alcotest.failf "%s: %s" wl.Wl.Workload.name
            (Format.asprintf "%a" Ir.Validate.pp_violation v))
    all

let test_sequential_deterministic () =
  List.iter
    (fun (wl : Wl.Workload.t) ->
      let p = wl.Wl.Workload.program Wl.Workload.Ref in
      let e1 = wl.Wl.Workload.fresh_env Wl.Workload.Ref in
      let e2 = wl.Wl.Workload.fresh_env Wl.Workload.Ref in
      let c1 = Ir.Seq_interp.run p e1 and c2 = Ir.Seq_interp.run p e2 in
      Alcotest.(check (float 1e-9)) (wl.Wl.Workload.name ^ " cost deterministic") c1 c2;
      Alcotest.(check bool)
        (wl.Wl.Workload.name ^ " state deterministic")
        true
        (Ir.Memory.equal e1.Ir.Env.mem e2.Ir.Env.mem))
    all

let test_train_differs_from_ref () =
  List.iter
    (fun (wl : Wl.Workload.t) ->
      let tr = wl.Wl.Workload.program Wl.Workload.Train in
      let rf = wl.Wl.Workload.program Wl.Workload.Ref in
      let env_tr = wl.Wl.Workload.fresh_env Wl.Workload.Train in
      let env_rf = wl.Wl.Workload.fresh_env Wl.Workload.Ref in
      Alcotest.(check bool)
        (wl.Wl.Workload.name ^ " train smaller than ref")
        true
        (Ir.Program.total_iterations tr env_tr < Ir.Program.total_iterations rf env_rf))
    all

let test_applicability_matches_table_5_1 () =
  List.iter
    (fun (wl : Wl.Workload.t) ->
      let ok = function Ok () -> true | Error _ -> false in
      Alcotest.(check bool)
        (wl.Wl.Workload.name ^ " DOMORE applicability")
        wl.Wl.Workload.domore_expected
        (ok (Cx.applicable Cx.Domore wl));
      (* SPECCROSS: the registry marks FLUIDANIMATE-1 as not evaluated even
         though the region is mechanically eligible. *)
      if wl.Wl.Workload.name <> "FLUIDANIMATE-1" then
        Alcotest.(check bool)
          (wl.Wl.Workload.name ^ " SPECCROSS applicability")
          wl.Wl.Workload.speccross_expected
          (ok (Cx.applicable Cx.Speccross wl)))
    all

let test_cg_dependence_structure () =
  let wl = Wl.Registry.find "CG" in
  (* Reference input: no within-invocation conflicts, frequent
     cross-invocation conflicts (Figure 3.1's 72.4% manifest rate). *)
  let p = wl.Wl.Workload.program Wl.Workload.Ref in
  let res = Ir.Profile.run p (wl.Wl.Workload.fresh_env Wl.Workload.Ref) in
  let update_sid =
    (List.hd (Ir.Program.body_stmts p)).Ir.Stmt.sid
  in
  List.iter
    (fun ((src, dst), (stat : Ir.Profile.pair_stat)) ->
      if src = update_sid && dst = update_sid then
        Alcotest.(check int) "no within-invocation conflicts" 0 stat.Ir.Profile.within)
    res.Ir.Profile.pairs;
  let rate = Ir.Profile.manifest_rate res p ~src_sid:update_sid ~dst_sid:update_sid in
  Alcotest.(check bool)
    (Printf.sprintf "manifest rate near 72%% (got %.1f%%)" (100. *. rate))
    true
    (rate > 0.6 && rate < 0.85);
  (* Banded (spec) input: never any cross-invocation conflict. *)
  let env = wl.Wl.Workload.fresh_env Wl.Workload.Ref_spec in
  let res_spec = Ir.Profile.run (wl.Wl.Workload.program Wl.Workload.Ref_spec) env in
  Alcotest.(check (option int)) "banded input conflict-free" None
    res_spec.Ir.Profile.min_task_distance

let test_min_distances_shape () =
  (* Table 5.3: conflict-free rows and roughly one-invocation distances. *)
  let dist name input =
    let wl = Wl.Registry.find name in
    let env = wl.Wl.Workload.fresh_env input in
    (Xinv_speccross.Profiler.profile (wl.Wl.Workload.program input) env)
      .Xinv_speccross.Profiler.min_task_distance
  in
  List.iter
    (fun name ->
      Alcotest.(check (option int)) (name ^ " has no conflicts") None
        (dist name Wl.Workload.Ref))
    [ "EQUAKE"; "LLUBENCH"; "SYMM" ];
  List.iter
    (fun name ->
      match dist name Wl.Workload.Ref with
      | None -> Alcotest.failf "%s should have conflicts" name
      | Some d -> Alcotest.(check bool) (name ^ " distance positive") true (d > 0))
    [ "FDTD"; "JACOBI"; "LOOPDEP"; "FLUIDANIMATE-2" ]

let test_jacobi_distance_tracks_input () =
  let d input =
    let wl = Wl.Registry.find "JACOBI" in
    let env = wl.Wl.Workload.fresh_env input in
    Option.get
      (Xinv_speccross.Profiler.profile (wl.Wl.Workload.program input) env)
        .Xinv_speccross.Profiler.min_task_distance
  in
  Alcotest.(check bool) "ref distance larger than train (bigger rows)" true
    (d Wl.Workload.Ref > d Wl.Workload.Train)

let exec_techniques (wl : Wl.Workload.t) =
  List.filter
    (fun t -> match Cx.applicable t wl with Ok () -> true | Error _ -> false)
    [ Cx.Barrier; Cx.Domore; Cx.Speccross ]

(* End-to-end: every workload, under every applicable technique, matches the
   sequential final state at a couple of thread counts. *)
let test_end_to_end_verified () =
  List.iter
    (fun (wl : Wl.Workload.t) ->
      List.iter
        (fun technique ->
          List.iter
            (fun threads ->
              let input =
                match technique with
                | Cx.Speccross when wl.Wl.Workload.name = "CG" -> Wl.Workload.Ref_spec
                | _ -> Wl.Workload.Ref
              in
              let o = Cx.run_request @@ Cx.Request.make ~input ~technique ~threads wl in
              Alcotest.(check bool)
                (Printf.sprintf "%s/%s@%d verified" wl.Wl.Workload.name
                   (Cx.technique_name technique) threads)
                true o.Cx.verified)
            [ 3; 8 ])
        (exec_techniques wl))
    all

let test_speedups_in_band () =
  (* Coarse bands from the dissertation's evaluation at 24 threads. *)
  let s name technique input =
    Option.get
      (Cx.run_request @@ Cx.Request.make ~input ~technique ~threads:24 (Wl.Registry.find name))
        .Cx.speedup
  in
  Alcotest.(check bool) "CG barrier below 1x" true
    (s "CG" Cx.Barrier Wl.Workload.Ref < 1.0);
  Alcotest.(check bool) "CG DOMORE between 8x and 13x" true
    (let v = s "CG" Cx.Domore Wl.Workload.Ref in
     v > 8. && v < 13.);
  Alcotest.(check bool) "JACOBI speccross beats barrier" true
    (s "JACOBI" Cx.Speccross Wl.Workload.Ref > s "JACOBI" Cx.Barrier Wl.Workload.Ref);
  Alcotest.(check bool) "ECLAT DOMORE plateaus below 8x" true
    (s "ECLAT" Cx.Domore Wl.Workload.Ref < 8.)

let test_headline_geomeans () =
  (* DOMORE: geomean over its six benchmarks, vs barrier and vs sequential
     (dissertation: 2.1x over barrier-parallel, 3.2x over sequential).
     We check the qualitative claims rather than exact values. *)
  let domore = Wl.Registry.domore_set () in
  let speed technique (wl : Wl.Workload.t) =
    Option.get (Cx.run_request @@ Cx.Request.make ~technique ~threads:24 wl).Cx.speedup
  in
  let g_domore = Xinv_util.Stats.geomean (List.map (speed Cx.Domore) domore) in
  let g_barrier = Xinv_util.Stats.geomean (List.map (speed Cx.Barrier) domore) in
  Alcotest.(check bool)
    (Printf.sprintf "DOMORE geomean (%.2f) > 3x sequential" g_domore)
    true (g_domore > 3.);
  Alcotest.(check bool)
    (Printf.sprintf "DOMORE (%.2f) at least 2x over barrier (%.2f)" g_domore g_barrier)
    true
    (g_domore > 2. *. g_barrier)

let test_cg_spec_fallback_vs_speculation () =
  let wl = Wl.Registry.find "CG" in
  (* Conflict-heavy ref input: the profiler's distance is below the worker
     count, so SPECCROSS falls back to real barriers (zero requests). *)
  let fallback = Cx.run_request @@ Cx.Request.make ~technique:Cx.Speccross ~threads:24 wl in
  (match fallback.Cx.run with
  | Some r -> Alcotest.(check int) "fallback: no checking requests" 0 r.Xinv_parallel.Run.checks
  | None -> Alcotest.fail "expected a run");
  (* Banded input: genuine speculation, one request per task. *)
  let spec =
    Cx.run_request @@ Cx.Request.make ~input:Wl.Workload.Ref_spec ~technique:Cx.Speccross ~threads:24 wl
  in
  match spec.Cx.run with
  | Some r ->
      Alcotest.(check bool) "speculated: requests issued" true
        (r.Xinv_parallel.Run.checks > 0);
      Alcotest.(check int) "no misspeculation on banded input" 0
        r.Xinv_parallel.Run.misspecs
  | None -> Alcotest.fail "expected a run"

let test_domore_rejection_reasons () =
  let reason t name =
    match Cx.applicable t (Wl.Registry.find name) with
    | Error r -> r
    | Ok () -> ""
  in
  let contains needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "FLUID-2 taint names cellof" true
    (contains "cellof" (reason Cx.Domore "FLUIDANIMATE-2"));
  Alcotest.(check bool) "LOOPDEP taint names C" true
    (contains ": C" (reason Cx.Domore "LOOPDEP"));
  Alcotest.(check bool) "JACOBI partition collapse" true
    (contains "no worker statements" (reason Cx.Domore "JACOBI"))

let test_scheduler_ratio_bands () =
  (* Table 5.2 bands: ECLAT has the heaviest scheduler of the scalable
     benchmarks, LLUBENCH/BLACKSCHOLES the lightest. *)
  let ratio name =
    let o = Cx.run_request @@ Cx.Request.make ~technique:Cx.Domore ~threads:24 (Wl.Registry.find name) in
    match o.Cx.run with
    | Some r -> 100. *. Xinv_domore.Domore.scheduler_worker_ratio r
    | None -> 0.
  in
  let eclat = ratio "ECLAT" and llu = ratio "LLUBENCH" and bs = ratio "BLACKSCHOLES" in
  Alcotest.(check bool)
    (Printf.sprintf "ECLAT ratio %.1f%% in [8, 17]" eclat)
    true
    (eclat > 8. && eclat < 17.);
  Alcotest.(check bool) "ECLAT heavier than LLUBENCH and BLACKSCHOLES" true
    (eclat > llu && eclat > bs)

let suite =
  [
    Alcotest.test_case "registry" `Quick test_registry;
    Alcotest.test_case "footprints sound" `Quick test_footprints_sound;
    Alcotest.test_case "sequential deterministic" `Quick test_sequential_deterministic;
    Alcotest.test_case "train < ref" `Quick test_train_differs_from_ref;
    Alcotest.test_case "Table 5.1 applicability" `Quick test_applicability_matches_table_5_1;
    Alcotest.test_case "CG dependence structure" `Quick test_cg_dependence_structure;
    Alcotest.test_case "Table 5.3 distance shapes" `Quick test_min_distances_shape;
    Alcotest.test_case "JACOBI distance tracks input" `Quick test_jacobi_distance_tracks_input;
    Alcotest.test_case "end-to-end verified" `Slow test_end_to_end_verified;
    Alcotest.test_case "speedups in band" `Slow test_speedups_in_band;
    Alcotest.test_case "headline geomeans" `Slow test_headline_geomeans;
    Alcotest.test_case "Table 5.2 ratio bands" `Slow test_scheduler_ratio_bands;
    Alcotest.test_case "CG speculation vs fallback" `Slow test_cg_spec_fallback_vs_speculation;
    Alcotest.test_case "DOMORE rejection reasons" `Quick test_domore_rejection_reasons;
  ]
