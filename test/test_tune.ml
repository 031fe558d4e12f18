(* Tests for the policy autotuner: search-space canonicalization, search
   determinism and the golden hill-climbing trajectory under an injected
   synthetic cost model, the searched → cached round-trip through the
   analysis cache, and policy replay fidelity (a tuned policy's run stays
   memory-bit-identical to sequential) for every registry workload. *)

module Wl = Xinv_workloads
module Cx = Xinv_core.Crossinv
module Policy = Xinv_cache.Policy
module Space = Xinv_tune.Space
module Search = Xinv_tune.Search
module Tune = Xinv_tune.Tune
module Prng = Xinv_util.Prng

(* ---------- scratch directories ---------- *)

let tmpdir () =
  let d = Filename.temp_file "xinvtune" ".d" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  d

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with _ -> ())
      (Sys.readdir dir);
    try Unix.rmdir dir with _ -> ()
  end

let with_dir f =
  let d = tmpdir () in
  Fun.protect ~finally:(fun () -> rm_rf d) (fun () -> f d)

let symm () = Wl.Registry.find "SYMM"

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* ---------- space ---------- *)

let test_space_axes () =
  let axes = Space.default_axes ~max_domains:2 (symm ()) in
  Alcotest.(check bool)
    "sequential always searchable" true
    (List.mem "sequential" axes.Space.techniques);
  Alcotest.(check bool)
    "domains capped" true
    (List.for_all (fun d -> d <= 2) axes.Space.domains);
  Alcotest.(check bool) "space non-empty" true (Space.size axes > 0)

let test_space_canon () =
  let axes = Space.default_axes ~max_domains:4 (symm ()) in
  let rng = Prng.create ~seed:11 in
  for _ = 1 to 200 do
    let p = Space.random rng axes in
    let c = Space.canon p in
    Alcotest.(check string)
      "canon idempotent" (Policy.key c)
      (Policy.key (Space.canon c))
  done;
  (* A sequential policy has no domains to count: canon collapses them. *)
  let seq =
    Space.canon { Policy.default with technique = "sequential"; domains = 4 }
  in
  Alcotest.(check int) "sequential canon is d1" 1 seq.Policy.domains

let test_space_neighbours () =
  let axes = Space.default_axes ~max_domains:4 (symm ()) in
  let p = Space.canon Policy.default in
  let ns = Space.neighbours axes p in
  Alcotest.(check bool) "has neighbours" true (ns <> []);
  Alcotest.(check bool)
    "self excluded" true
    (not (List.exists (Policy.equal p) ns));
  let keys = List.map Policy.key ns in
  Alcotest.(check int)
    "neighbours deduplicated"
    (List.length keys)
    (List.length (List.sort_uniq compare keys));
  List.iter
    (fun n ->
      Alcotest.(check string)
        "neighbours are canonical" (Policy.key n)
        (Policy.key (Space.canon n)))
    ns

let test_space_seeds () =
  let axes = Space.default_axes ~max_domains:4 (symm ()) in
  let ss = Space.seeds axes in
  Alcotest.(check int)
    "one seed per technique"
    (List.length axes.Space.techniques)
    (List.length ss);
  List.iter
    (fun s ->
      Alcotest.(check string)
        "seeds are canonical" (Policy.key s)
        (Policy.key (Space.canon s)))
    ss

(* Every policy the space proposes runs: [run_request] refuses what
   [applicable ~threads] refuses (one-domain DOMORE and SPECCROSS), so such
   a trial would only spend budget. *)
let test_space_proposes_runnable () =
  List.iter
    (fun (name, max_domains) ->
      let wl = Wl.Registry.find name in
      let axes = Space.default_axes ~max_domains wl in
      let rng = Prng.create ~seed:3 in
      let randoms = List.init 100 (fun _ -> Space.random rng axes) in
      let starts = Space.seeds axes @ randoms in
      List.iter
        (fun (p : Policy.t) ->
          let technique = Option.get (Cx.technique_of_string p.Policy.technique) in
          match Cx.applicable ~backend:`Native ~threads:p.Policy.domains technique wl with
          | Ok () -> ()
          | Error why ->
              Alcotest.failf "%s at %d domains proposes %s: %s" name max_domains
                (Policy.key p) why)
        (starts @ List.concat_map (Space.neighbours axes) starts))
    [ ("SYMM", 2); ("SYMM", 4); ("ECLAT", 2); ("CG", 1) ]

(* ---------- search determinism (synthetic cost model) ---------- *)

(* A deterministic synthetic cost: hash of the policy key, so every
   distinct configuration has a distinct, reproducible "wall time". *)
let synthetic ~incumbent_ns:_ (p : Policy.t) =
  let h = Hashtbl.hash (Policy.key p) in
  {
    Search.m_wall_ns = float_of_int (1000 + (h mod 100_000));
    m_seq_ns = 50_000.;
    m_ok = true;
    m_pruned = false;
  }

let run_search ~seed =
  let axes = Space.default_axes ~max_domains:4 (symm ()) in
  Search.search ~budget:24 ~seed ~axes ~measure:synthetic ()

let trial_keys r =
  List.map (fun t -> Policy.key t.Search.t_policy) r.Search.trials

(* Golden hill-climbing trajectories: the trial keys and the best policy
   of [Search.search] on the synthetic cost model above, SYMM's axes at 4
   domains, budget 24.  A change to the climb, the neighbourhood order,
   the seeds, the per-technique widths or [Space.canon] moves these. *)
let hill_golden =
  [
    ( 3,
      "native:speccross d4 g4 b32 sig=segmented spec=auto epoch=1000",
      [
        "native:sequential d1 g1 b32 sig=segmented spec=auto epoch=1000";
        "native:barrier d1 g1 b32 sig=segmented spec=auto epoch=1000";
        "native:domore-dup d1 g1 b32 sig=segmented spec=auto epoch=1000";
        "native:barrier d4 g16 b32 sig=segmented spec=auto epoch=1000";
        "native:barrier d4 g64 b32 sig=segmented spec=auto epoch=1000";
        "native:barrier d4 g4 b32 sig=segmented spec=auto epoch=1000";
        "native:barrier d1 g4 b32 sig=segmented spec=auto epoch=1000";
        "native:barrier d2 g4 b32 sig=segmented spec=auto epoch=1000";
        "native:domore-dup d4 g4 b32 sig=segmented spec=auto epoch=1000";
        "native:barrier d4 g1 b32 sig=segmented spec=auto epoch=1000";
        "native:speccross d4 g1 b32 sig=segmented spec=auto epoch=1000";
        "native:domore-dup d4 g1 b32 sig=segmented spec=auto epoch=1000";
        "native:speccross d2 g1 b32 sig=segmented spec=auto epoch=1000";
        "native:speccross d4 g1 b32 sig=range spec=auto epoch=1000";
        "native:speccross d4 g1 b32 sig=segmented spec=4 epoch=1000";
        "native:speccross d4 g64 b32 sig=segmented spec=auto epoch=1000";
        "native:speccross d4 g1 b32 sig=segmented spec=64 epoch=1000";
        "native:speccross d4 g1 b32 sig=segmented spec=16 epoch=1000";
        "native:speccross d4 g1 b32 sig=bloom spec=auto epoch=1000";
        "native:domore d4 g1 b32 sig=segmented spec=auto epoch=1000";
        "native:speccross d4 g4 b32 sig=segmented spec=auto epoch=1000";
        "native:speccross d4 g4 b32 sig=range spec=auto epoch=1000";
        "native:speccross d4 g4 b32 sig=segmented spec=auto epoch=4000";
        "native:speccross d4 g4 b32 sig=segmented spec=auto epoch=250";
      ] );
    ( 5,
      "native:domore d4 g4 b32 sig=segmented spec=auto epoch=1000",
      [
        "native:sequential d1 g1 b32 sig=segmented spec=auto epoch=1000";
        "native:domore-dup d1 g1 b32 sig=segmented spec=auto epoch=1000";
        "native:barrier d1 g1 b32 sig=segmented spec=auto epoch=1000";
        "native:barrier d4 g16 b32 sig=segmented spec=auto epoch=1000";
        "native:barrier d4 g4 b32 sig=segmented spec=auto epoch=1000";
        "native:speccross d4 g4 b32 sig=segmented spec=auto epoch=1000";
        "native:domore d4 g4 b32 sig=segmented spec=auto epoch=1000";
        "native:domore d2 g4 b32 sig=segmented spec=auto epoch=1000";
        "native:domore-dup d4 g4 b32 sig=segmented spec=auto epoch=1000";
        "native:domore d4 g4 b1 sig=segmented spec=auto epoch=1000";
        "native:domore d4 g16 b32 sig=segmented spec=auto epoch=1000";
        "native:domore d4 g64 b32 sig=segmented spec=auto epoch=1000";
        "native:domore d4 g1 b32 sig=segmented spec=auto epoch=1000";
        "native:domore d4 g4 b128 sig=segmented spec=auto epoch=1000";
        "native:domore-dup d4 g16 b32 sig=segmented spec=auto epoch=1000";
        "native:domore d4 g16 b1 sig=segmented spec=auto epoch=1000";
        "native:domore d2 g16 b32 sig=segmented spec=auto epoch=1000";
        "native:domore d4 g16 b128 sig=segmented spec=auto epoch=1000";
        "native:speccross d4 g16 b32 sig=segmented spec=auto epoch=1000";
        "native:domore-dup d2 g16 b32 sig=segmented spec=auto epoch=1000";
        "native:domore-dup d4 g16 b128 sig=segmented spec=auto epoch=1000";
        "native:domore-dup d4 g64 b32 sig=segmented spec=auto epoch=1000";
        "native:speccross d4 g64 b32 sig=segmented spec=auto epoch=1000";
        "native:domore-dup d4 g1 b32 sig=segmented spec=auto epoch=1000";
      ] );
    ( 7,
      "native:domore d4 g4 b32 sig=segmented spec=auto epoch=1000",
      [
        "native:sequential d1 g1 b32 sig=segmented spec=auto epoch=1000";
        "native:barrier d1 g1 b32 sig=segmented spec=auto epoch=1000";
        "native:domore-dup d1 g1 b32 sig=segmented spec=auto epoch=1000";
        "native:barrier d4 g16 b32 sig=segmented spec=auto epoch=1000";
        "native:barrier d2 g16 b32 sig=segmented spec=auto epoch=1000";
        "native:barrier d2 g1 b32 sig=segmented spec=auto epoch=1000";
        "native:speccross d2 g16 b32 sig=segmented spec=auto epoch=1000";
        "native:barrier d1 g16 b32 sig=segmented spec=auto epoch=1000";
        "native:barrier d1 g64 b32 sig=segmented spec=auto epoch=1000";
        "native:barrier d1 g4 b32 sig=segmented spec=auto epoch=1000";
        "native:domore-dup d1 g16 b32 sig=segmented spec=auto epoch=1000";
        "native:domore-dup d2 g16 b32 sig=segmented spec=auto epoch=1000";
        "native:domore-dup d4 g16 b32 sig=segmented spec=auto epoch=1000";
        "native:domore-dup d1 g64 b32 sig=segmented spec=auto epoch=1000";
        "native:domore-dup d1 g16 b1 sig=segmented spec=auto epoch=1000";
        "native:domore-dup d1 g4 b32 sig=segmented spec=auto epoch=1000";
        "native:domore-dup d1 g16 b128 sig=segmented spec=auto epoch=1000";
        "native:domore d4 g16 b32 sig=segmented spec=auto epoch=1000";
        "native:domore d4 g64 b32 sig=segmented spec=auto epoch=1000";
        "native:domore d4 g4 b32 sig=segmented spec=auto epoch=1000";
        "native:domore d4 g1 b32 sig=segmented spec=auto epoch=1000";
        "native:barrier d4 g4 b32 sig=segmented spec=auto epoch=1000";
        "native:domore-dup d4 g4 b32 sig=segmented spec=auto epoch=1000";
        "native:domore d2 g4 b32 sig=segmented spec=auto epoch=1000";
      ] );
  ]

let test_search_hill_golden () =
  List.iter
    (fun (seed, best, keys) ->
      let r = run_search ~seed in
      Alcotest.(check (list string))
        (Printf.sprintf "seed %d: trial keys" seed)
        keys (trial_keys r);
      Alcotest.(check string)
        (Printf.sprintf "seed %d: best policy" seed)
        best
        (Policy.key r.Search.best))
    hill_golden

let test_search_deterministic () =
  let a = run_search ~seed:7 in
  let b = run_search ~seed:7 in
  Alcotest.(check (list string))
    "same seed, same trials" (trial_keys a) (trial_keys b);
  Alcotest.(check string)
    "same seed, same best" (Policy.key a.Search.best)
    (Policy.key b.Search.best)

let test_search_contract () =
  let r = run_search ~seed:3 in
  Alcotest.(check bool) "budget respected" true (r.Search.evaluated <= 24);
  (match r.Search.trials with
  | first :: _ ->
      Alcotest.(check string)
        "trial 1 is the default policy"
        (Policy.key Policy.default)
        (Policy.key first.Search.t_policy)
  | [] -> Alcotest.fail "no trials");
  let keys = trial_keys r in
  Alcotest.(check int)
    "no configuration measured twice" (List.length keys)
    (List.length (List.sort_uniq compare keys));
  (* The best really is the cheapest successful trial. *)
  let min_ns =
    List.fold_left
      (fun acc t ->
        if t.Search.t_ok && not t.Search.t_pruned then
          Float.min acc t.Search.t_wall_ns
        else acc)
      Float.infinity r.Search.trials
  in
  Alcotest.(check (float 0.01))
    "best is the cheapest trial" min_ns r.Search.best_wall_ns

let test_search_failures_never_win () =
  (* Every candidate except the default fails: the default must remain
     the incumbent no matter how attractive the failures' wall times. *)
  let axes = Space.default_axes ~max_domains:4 (symm ()) in
  let measure ~incumbent_ns:_ (p : Policy.t) =
    if Policy.equal (Space.canon p) (Space.canon Policy.default) then
      { Search.m_wall_ns = 5000.; m_seq_ns = 5000.; m_ok = true;
        m_pruned = false }
    else
      { Search.m_wall_ns = 1.; m_seq_ns = 5000.; m_ok = false;
        m_pruned = true }
  in
  let r = Search.search ~budget:12 ~seed:5 ~axes ~measure () in
  Alcotest.(check string)
    "failed trials never become best"
    (Policy.key (Space.canon Policy.default))
    (Policy.key r.Search.best)

(* ---------- tune: searched -> cached round-trip ---------- *)

let test_tune_roundtrip () =
  with_dir (fun dir ->
      let wl = symm () in
      let cold =
        Tune.tune ~cache:`Rw ~cache_dir:dir ~input:Wl.Workload.Train ~budget:6
          ~seed:7 ~max_domains:2 wl
      in
      Alcotest.(check string)
        "cold tune searches" "searched"
        (Tune.source_name cold.Tune.source);
      Alcotest.(check bool) "cold tune ran trials" true (cold.Tune.trials <> []);
      let warm =
        Tune.tune ~cache:`Rw ~cache_dir:dir ~input:Wl.Workload.Train ~budget:6
          ~seed:7 ~max_domains:2 wl
      in
      Alcotest.(check string)
        "warm tune cached" "cached"
        (Tune.source_name warm.Tune.source);
      Alcotest.(check int)
        "warm tune runs zero search trials" 0
        (List.length warm.Tune.trials);
      Alcotest.(check string)
        "warm policy identical to searched"
        (Policy.key cold.Tune.tuned.Policy.policy)
        (Policy.key warm.Tune.tuned.Policy.policy);
      (* `Auto resolution inside the facade finds the same artifact. *)
      let o =
        Cx.run_request @@ Cx.Request.make ~input:Wl.Workload.Train ~cache:`Ro ~cache_dir:dir
          ~policy:`Auto ~technique:Cx.Barrier ~threads:2 wl
      in
      Alcotest.(check string)
        "run --policy auto resolves the cached policy" "cached"
        o.Cx.policy_source;
      Alcotest.(check bool) "auto run verified" true o.Cx.verified;
      (* JSON report carries the schema marker. *)
      let json = Tune.report_json cold in
      Alcotest.(check bool)
        "report carries xinv-tune/1 schema" true
        (contains json "\"schema\": \"xinv-tune/1\""))

(* ---------- policy replay fidelity: every registry workload ---------- *)

(* The autotuner must never trade correctness for speed: whatever policy
   it lands on, replaying it produces memory bit-identical to the
   sequential run (the pinned request verifies against the sequential
   baseline). *)
let test_policy_replay_all () =
  List.iter
    (fun wl ->
      let r =
        Tune.tune ~input:Wl.Workload.Train ~budget:4 ~seed:13 ~max_domains:2 wl
      in
      let o =
        Cx.run_request
          (Cx.Request.make ~input:Wl.Workload.Train
             ~backend:(`Native Cx.native_defaults)
             ~technique:Cx.Sequential ~threads:1 wl
          |> Cx.Request.apply_policy r.Tune.tuned.Policy.policy)
      in
      Alcotest.(check bool)
        (wl.Wl.Workload.name ^ ": tuned policy replay bit-identical")
        true o.Cx.verified)
    (Wl.Registry.all ())

let suite =
  [
    Alcotest.test_case "space axes" `Quick test_space_axes;
    Alcotest.test_case "space canon" `Quick test_space_canon;
    Alcotest.test_case "space neighbours" `Quick test_space_neighbours;
    Alcotest.test_case "space seeds" `Quick test_space_seeds;
    Alcotest.test_case "search deterministic" `Quick test_search_deterministic;
    Alcotest.test_case "search contract" `Quick test_search_contract;
    Alcotest.test_case "search hill trajectory golden" `Quick
      test_search_hill_golden;
    Alcotest.test_case "search failures never win" `Quick
      test_search_failures_never_win;
    Alcotest.test_case "tune searched/cached round-trip" `Slow
      test_tune_roundtrip;
    Alcotest.test_case "policy replay all workloads" `Slow
      test_policy_replay_all;
    Alcotest.test_case "space proposes only runnable policies" `Quick
      test_space_proposes_runnable;
  ]
