(* Unit and property tests for the utility library. *)

module Prng = Xinv_util.Prng
module Stats = Xinv_util.Stats
module Tab = Xinv_util.Tab

let test_prng_deterministic () =
  let a = Prng.create ~seed:42 and b = Prng.create ~seed:42 in
  let xs g = List.init 32 (fun _ -> Prng.int g 1000) in
  Alcotest.(check (list int)) "same seed, same stream" (xs a) (xs b);
  let c = Prng.create ~seed:43 in
  Alcotest.(check bool) "different seed differs" true (xs (Prng.create ~seed:42) <> xs c)

let test_prng_split () =
  let a = Prng.create ~seed:7 in
  let b = Prng.split a in
  let xa = List.init 16 (fun _ -> Prng.int a 100) in
  let xb = List.init 16 (fun _ -> Prng.int b 100) in
  Alcotest.(check bool) "split streams independent" true (xa <> xb)

let prop_prng_bounds =
  QCheck.Test.make ~name:"Prng.int stays within bounds" ~count:500
    QCheck.(pair small_int (int_range 1 10_000))
    (fun (seed, bound) ->
      let g = Prng.create ~seed in
      List.for_all (fun _ -> let v = Prng.int g bound in v >= 0 && v < bound)
        (List.init 50 Fun.id))

let prop_prng_int_in =
  QCheck.Test.make ~name:"Prng.int_in inclusive range" ~count:200
    QCheck.(pair small_int (pair (int_range (-50) 50) (int_range 0 100)))
    (fun (seed, (lo, span)) ->
      let g = Prng.create ~seed in
      let hi = lo + span in
      let v = Prng.int_in g lo hi in
      v >= lo && v <= hi)

let test_stats () =
  Alcotest.(check (float 1e-9)) "mean" 2. (Stats.mean [ 1.; 2.; 3. ]);
  Alcotest.(check (float 1e-9)) "geomean" 2. (Stats.geomean [ 1.; 2.; 4. ] ** 1.
                                              |> fun x -> x /. 1.);
  Alcotest.(check (float 1e-6)) "geomean 2" 2. (Stats.geomean [ 4.; 1. ])

let test_tab () =
  let t = Tab.render ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "33"; "4" ] ] in
  Alcotest.(check bool) "has header" true
    (String.length t > 0 && String.sub t 0 1 = "a");
  Alcotest.(check string) "speedup fmt" "3.14x" (Tab.fmt_speedup 3.14159);
  let bars = Tab.render_bars [ ("x", 1.); ("y", 2.) ] in
  Alcotest.(check bool) "bars render" true (String.length bars > 0)

let suite =
  [
    Alcotest.test_case "prng deterministic" `Quick test_prng_deterministic;
    Alcotest.test_case "prng split" `Quick test_prng_split;
    QCheck_alcotest.to_alcotest prop_prng_bounds;
    QCheck_alcotest.to_alcotest prop_prng_int_in;
    Alcotest.test_case "stats" `Quick test_stats;
    Alcotest.test_case "tab" `Quick test_tab;
  ]
