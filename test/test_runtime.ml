(* Tests for the runtime substrate: shadow memory, signatures, signature log,
   checkpoints. *)

module Rt = Xinv_runtime
module Ir = Xinv_ir

let deps_eq = Alcotest.(check (list (pair int int)))

(* One note's dependences through a fresh accumulator. *)
let note ~write sh addr tid iter =
  let d = Rt.Shadow.Deps.create () in
  (if write then Rt.Shadow.note_write_deps sh addr ~tid ~iter d
   else Rt.Shadow.note_read_deps sh addr ~tid ~iter d);
  Rt.Shadow.Deps.to_list d

let rd = note ~write:false

let wr = note ~write:true

let test_shadow_war_waw_raw () =
  let sh = Rt.Shadow.create ~words:16 ~workers:3 in
  (* write by t0/i0; read by t1/i1 must wait for the write *)
  deps_eq "first write no deps" [] (wr sh 5 0 0);
  deps_eq "RAW" [ (0, 0) ] (rd sh 5 1 1);
  (* write by t2/i2 waits for last write and the reader *)
  deps_eq "WAW+WAR" [ (0, 0); (1, 1) ] (wr sh 5 2 2);
  (* same-thread accesses never synchronize *)
  deps_eq "same tid" [] (wr sh 5 2 3);
  Alcotest.(check bool) "worker out of range rejected" true
    (try ignore (rd sh 5 3 4); false with Invalid_argument _ -> true);
  Alcotest.(check bool) "address out of range rejected" true
    (try ignore (wr sh 16 0 4); false with Invalid_argument _ -> true)

let test_shadow_no_rar () =
  let sh = Rt.Shadow.create ~words:16 ~workers:3 in
  deps_eq "r1" [] (rd sh 9 0 0);
  deps_eq "read-after-read free" [] (rd sh 9 1 1);
  (* but a write must wait for all foreign readers *)
  let deps = wr sh 9 2 2 in
  Alcotest.(check bool) "write waits for both readers" true
    (List.mem (0, 0) deps && List.mem (1, 1) deps)

let test_shadow_reader_latest_kept () =
  let sh = Rt.Shadow.create ~words:2 ~workers:2 in
  ignore (rd sh 1 0 3);
  ignore (rd sh 1 0 7);
  deps_eq "latest read per tid" [ (0, 7) ] (wr sh 1 1 9)

let test_sync_cond () =
  let open Rt.Sync_cond in
  Alcotest.(check bool) "eq" true (equal End_token End_token);
  Alcotest.(check bool) "neq" false
    (equal (No_sync { iter = 1 }) (Wait { dep_tid = 0; dep_iter = 1 }));
  Alcotest.(check string) "pp" "(T1, I2)"
    (Format.asprintf "%a" pp (Wait { dep_tid = 1; dep_iter = 2 }))

let kinds =
  [
    ("range", Rt.Signature.Range);
    ("segmented", Rt.Signature.Segmented [| 0; 100; 200 |]);
    ("bloom", Rt.Signature.Bloom { bits = 512; hashes = 3 });
    ("exact", Rt.Signature.Exact);
  ]

let test_signature_basics () =
  List.iter
    (fun (name, kind) ->
      let s = Rt.Signature.create kind in
      Alcotest.(check bool) (name ^ " empty") true (Rt.Signature.is_empty s);
      Rt.Signature.add_list s [ 5; 42; 199 ];
      Alcotest.(check int) (name ^ " count") 3 (Rt.Signature.count s);
      let t = Rt.Signature.create kind in
      Alcotest.(check bool) (name ^ " empty never intersects") false
        (Rt.Signature.intersects s t);
      Rt.Signature.add t 42;
      Alcotest.(check bool) (name ^ " overlap detected") true
        (Rt.Signature.intersects s t))
    kinds

(* Soundness: if two address sets share an element, every signature kind
   must report an intersection (no false negatives). *)
let prop_signature_sound =
  QCheck.Test.make ~name:"signatures have no false negatives" ~count:300
    QCheck.(pair (list (int_range 0 299)) (list (int_range 0 299)))
    (fun (xs, ys) ->
      let shared = List.exists (fun x -> List.mem x ys) xs in
      (not shared)
      || List.for_all
           (fun (_, kind) ->
             let a = Rt.Signature.create kind and b = Rt.Signature.create kind in
             Rt.Signature.add_list a xs;
             Rt.Signature.add_list b ys;
             Rt.Signature.intersects a b)
           kinds)

(* Exact signatures are precise: intersection iff a shared address exists. *)
let prop_exact_precise =
  QCheck.Test.make ~name:"exact signature is precise" ~count:300
    QCheck.(pair (list (int_range 0 99)) (list (int_range 0 99)))
    (fun (xs, ys) ->
      let shared = xs <> [] && ys <> [] && List.exists (fun x -> List.mem x ys) xs in
      let a = Rt.Signature.create Rt.Signature.Exact in
      let b = Rt.Signature.create Rt.Signature.Exact in
      Rt.Signature.add_list a xs;
      Rt.Signature.add_list b ys;
      Rt.Signature.intersects a b = shared)

(* Segmented ranges are strictly more precise than a global range. *)
let test_segmented_beats_range () =
  let bounds = [| 0; 100 |] in
  let a = Rt.Signature.create (Rt.Signature.Segmented bounds) in
  let b = Rt.Signature.create (Rt.Signature.Segmented bounds) in
  (* a touches array0[5] and array1[150]; b touches array0[50]: the global
     ranges [5,150] and [50,50] overlap, the per-array ranges do not. *)
  Rt.Signature.add_list a [ 5; 150 ];
  Rt.Signature.add b 50;
  Alcotest.(check bool) "segmented disjoint" false (Rt.Signature.intersects a b);
  let ra = Rt.Signature.create Rt.Signature.Range in
  let rb = Rt.Signature.create Rt.Signature.Range in
  Rt.Signature.add_list ra [ 5; 150 ];
  Rt.Signature.add rb 50;
  Alcotest.(check bool) "plain range false positive" true (Rt.Signature.intersects ra rb)

let test_signature_merge () =
  List.iter
    (fun (name, kind) ->
      let a = Rt.Signature.create kind and b = Rt.Signature.create kind in
      Rt.Signature.add a 10;
      Rt.Signature.add b 210;
      Rt.Signature.merge ~into:a b;
      let probe = Rt.Signature.create kind in
      Rt.Signature.add probe 210;
      Alcotest.(check bool) (name ^ " merged content visible") true
        (Rt.Signature.intersects a probe))
    kinds

let exact_sig addrs =
  let s = Rt.Signature.create Rt.Signature.Exact in
  List.iter (Rt.Signature.add s) addrs;
  s

(* Entries of one worker's log: how many, whatever their epoch. *)
let siglog_held log ~worker =
  fst
    (Rt.Siglog.compare_window log ~worker ~after:min_int ~epoch:0 ~upto:max_int
       (exact_sig []))

let test_siglog () =
  let log = Rt.Siglog.create ~workers:2 in
  let window = Alcotest.(check (pair int bool)) in
  (* Epoch 1 starts at global position 10, epoch 2 at 20. *)
  Rt.Siglog.store log ~worker:0 ~pos:10 ~epoch:1 (exact_sig [ 1 ]);
  Rt.Siglog.store log ~worker:0 ~pos:12 ~epoch:1 (exact_sig [ 2 ]);
  Rt.Siglog.store log ~worker:0 ~pos:20 ~epoch:2 (exact_sig [ 3 ]);
  Rt.Siglog.store log ~worker:1 ~pos:11 ~epoch:1 (exact_sig [ 4 ]);
  Alcotest.(check (pair int int)) "stored" (3, 1)
    (siglog_held log ~worker:0, siglog_held log ~worker:1);
  window "window after position 10, epochs below 3" (2, true)
    (Rt.Siglog.compare_window log ~worker:0 ~after:10 ~epoch:3 ~upto:3 (exact_sig [ 3 ]));
  window "TM-style: same-epoch entries counted, never flagged" (2, false)
    (Rt.Siglog.compare_window log ~worker:0 ~after:10 ~epoch:2 ~upto:3 (exact_sig [ 3 ]));
  window "empty window" (0, false)
    (Rt.Siglog.compare_window log ~worker:1 ~after:19 ~epoch:2 ~upto:2 (exact_sig [ 4 ]));
  Rt.Siglog.prune log ~upto:2;
  Alcotest.(check (pair int int)) "pruned below epoch 2" (1, 0)
    (siglog_held log ~worker:0, siglog_held log ~worker:1);
  Rt.Siglog.clear log;
  Alcotest.(check int) "cleared" 0 (siglog_held log ~worker:0)

(* Per worker, strictly ascending positions with non-decreasing epochs, each
   with the addresses of an Exact signature; then a probe signature, the
   window bounds [after], [epoch] and [upto], and a prune bound. *)
let siglog_case =
  let open QCheck.Gen in
  let steps =
    list_size (int_range 0 40)
      (triple (int_range 1 3) (int_range 0 1) (list_size (int_range 0 3) (int_range 0 15)))
  in
  let to_log steps =
    let pos = ref (-1) and epoch = ref 0 in
    List.map
      (fun (gap, de, addrs) ->
        pos := !pos + gap;
        epoch := !epoch + de;
        (!pos, !epoch, addrs))
      steps
  in
  pair
    (pair (list_size (int_range 1 3) (map to_log steps)) (list_size (int_range 0 3) (int_range 0 15)))
    (quad (int_range (-2) 122) (int_range 0 42) (int_range 0 42) (int_range 0 42))

let prop_siglog_window =
  QCheck.Test.make ~name:"signature log: window, prune and clear = brute force" ~count:300
    (QCheck.make siglog_case)
    (fun ((logs, probe), (after, epoch, upto, cut)) ->
      let log = Rt.Siglog.create ~workers:(List.length logs) in
      let store ~shift =
        List.iteri
          (fun worker entries ->
            List.iter
              (fun (pos, epoch, addrs) ->
                Rt.Siglog.store log ~worker ~pos:(pos + shift) ~epoch (exact_sig addrs))
              entries)
          logs
      in
      let windows_match ~shift logs =
        List.for_all
          (fun (worker, entries) ->
            let win = List.filter (fun (p, e, _) -> p > after && e < upto) entries in
            let hit =
              List.exists
                (fun (_, e, addrs) -> e < epoch && List.exists (fun a -> List.mem a probe) addrs)
                win
            in
            Rt.Siglog.compare_window log ~worker ~after:(after + shift) ~epoch ~upto
              (exact_sig probe)
            = (List.length win, hit)
            && siglog_held log ~worker = List.length entries)
          (List.mapi (fun w l -> (w, l)) logs)
      in
      store ~shift:0;
      let stored = windows_match ~shift:0 logs in
      Rt.Siglog.prune log ~upto:cut;
      let pruned =
        windows_match ~shift:0 (List.map (List.filter (fun (_, e, _) -> e >= cut)) logs)
      in
      Rt.Siglog.clear log;
      let cleared = windows_match ~shift:0 (List.map (fun _ -> []) logs) in
      (* The log keeps working after a clear, at later positions. *)
      store ~shift:1000;
      stored && pruned && cleared && windows_match ~shift:1000 logs)

let test_checkpoint () =
  let m = Ir.Memory.create [ Ir.Memory.Floats ("a", [| 1.; 2. |]) ] in
  let ck = Rt.Checkpoint.create () in
  Alcotest.(check (option int)) "none yet" None (Rt.Checkpoint.latest_epoch ck);
  Rt.Checkpoint.save ck ~epoch:4 m;
  Ir.Memory.set_float m "a" 0 99.;
  Alcotest.(check int) "restore epoch" 4 (Rt.Checkpoint.restore ck ~into:m);
  Alcotest.(check (float 1e-9)) "value restored" 1. (Ir.Memory.get_float m "a" 0);
  Rt.Checkpoint.save ck ~epoch:9 m;
  Alcotest.(check int) "saves counted" 2 (Rt.Checkpoint.saves ck);
  Alcotest.(check (option int)) "latest" (Some 9) (Rt.Checkpoint.latest_epoch ck)

(* ---------- optimized primitives vs naive reference models ---------- *)

(* Batches of random notes (addr, tid, write?), [reset] between batches;
   the step index is the iteration number, so iterations increase
   monotonically like a real run.  Addresses and workers are drawn raw and
   folded into the shadow's [words] and [workers]. *)
let batches_gen =
  QCheck.(
    list_of_size Gen.(int_range 1 4)
      (list_of_size Gen.(int_range 0 120) (triple (int_range 0 1_000) (int_range 0 1_000) bool)))

let prop_shadow_matches_reference =
  QCheck.Test.make ~name:"optimized shadow = naive reference (deps, order)" ~count:200
    QCheck.(triple (int_range 1 24) (int_range 1 48) batches_gen)
    (fun (workers, words, batches) ->
      let sh = Rt.Shadow.create ~words ~workers and d = Rt.Shadow.Deps.create () in
      let step = ref 0 in
      List.for_all
        (fun batch ->
          Rt.Shadow.reset sh;
          let rf = Ref_shadow.create () in
          List.for_all
            (fun (a, t, write) ->
              let addr = a mod words and tid = t mod workers and iter = !step in
              incr step;
              Rt.Shadow.Deps.clear d;
              let want =
                if write then (
                  Rt.Shadow.note_write_deps sh addr ~tid ~iter d;
                  Ref_shadow.note_write rf addr ~tid ~iter)
                else (
                  Rt.Shadow.note_read_deps sh addr ~tid ~iter d;
                  Ref_shadow.note_read rf addr ~tid ~iter)
              in
              Rt.Shadow.Deps.to_list d = Ref_shadow.dedup want)
            batch)
        batches)

(* A random access trace: (addr, tid, write?) per step over 41 words and 6
   workers. *)
let trace_gen =
  QCheck.(
    list_of_size Gen.(int_range 0 200)
      (triple (int_range 0 40) (int_range 0 5) bool))

(* The Deps accumulator must agree with the reference plus List.mem dedup
   across a whole iteration's worth of notes. *)
let prop_deps_accumulator_matches =
  QCheck.Test.make ~name:"Deps accumulator = Ref_shadow + List.mem dedup" ~count:200
    QCheck.(pair trace_gen (int_range 0 5))
    (fun (trace, tid) ->
      let sh = Rt.Shadow.create ~words:41 ~workers:6 and rf = Ref_shadow.create () in
      let deps = Rt.Shadow.Deps.create () in
      (* Warm both with the trace ... *)
      List.iteri
        (fun i (addr, t, w) ->
          if w then (
            Rt.Shadow.note_write_deps sh addr ~tid:t ~iter:i deps;
            ignore (Ref_shadow.note_write rf addr ~tid:t ~iter:i))
          else (
            Rt.Shadow.note_read_deps sh addr ~tid:t ~iter:i deps;
            ignore (Ref_shadow.note_read rf addr ~tid:t ~iter:i)))
        trace;
      (* ... then collect one iteration's dependences over a fixed footprint
         both ways. *)
      let iter = List.length trace in
      let raddrs = [ 0; 7; 13; 21 ] and waddrs = [ 3; 7; 33 ] in
      Rt.Shadow.Deps.clear deps;
      List.iter (fun a -> Rt.Shadow.note_read_deps sh a ~tid ~iter deps) raddrs;
      List.iter (fun a -> Rt.Shadow.note_write_deps sh a ~tid ~iter deps) waddrs;
      let on_reads = List.concat_map (fun a -> Ref_shadow.note_read rf a ~tid ~iter) raddrs in
      let on_writes = List.concat_map (fun a -> Ref_shadow.note_write rf a ~tid ~iter) waddrs in
      Rt.Shadow.Deps.to_list deps = Ref_shadow.dedup (on_reads @ on_writes))

let test_shadow_reset_o1 () =
  let n = 100_000 in
  let sh = Rt.Shadow.create ~words:n ~workers:4 in
  for i = 0 to n - 1 do
    ignore (wr sh i (i land 3) i)
  done;
  deps_eq "written before reset" [ (1, 9) ] (rd sh 9 0 n);
  Rt.Shadow.reset sh;
  deps_eq "stale write invisible after reset" [] (rd sh 5 0 n);
  deps_eq "stale read invisible after reset" [] (wr sh 9 1 n);
  (* refilling after a reset finds the new generation's accesses *)
  for i = 0 to n - 1 do
    ignore (wr sh i 1 i)
  done;
  deps_eq "refill visible" [ (1, 7) ] (rd sh 7 2 n)

(* Every signature kind must over-approximate the exact oracle, including on
   addresses outside the Segmented bounds (clamped, not crashing). *)
let prop_signature_over_approximates_exact =
  QCheck.Test.make ~name:"signature intersects never under-approximates exact" ~count:300
    QCheck.(pair (list (int_range (-50) 349)) (list (int_range (-50) 349)))
    (fun (xs, ys) ->
      let exact_a = Rt.Signature.create Rt.Signature.Exact in
      let exact_b = Rt.Signature.create Rt.Signature.Exact in
      Rt.Signature.add_list exact_a xs;
      Rt.Signature.add_list exact_b ys;
      (not (Rt.Signature.intersects exact_a exact_b))
      || List.for_all
           (fun (_, kind) ->
             let a = Rt.Signature.create kind and b = Rt.Signature.create kind in
             Rt.Signature.add_list a xs;
             Rt.Signature.add_list b ys;
             Rt.Signature.intersects a b)
           kinds)

let test_segmented_clamps_out_of_range () =
  let bounds = [| 100; 200 |] in
  let a = Rt.Signature.create (Rt.Signature.Segmented bounds) in
  (* below the first bound: clamps into segment 0 instead of crashing *)
  Rt.Signature.add a 7;
  Rt.Signature.add a 150;
  let b = Rt.Signature.create (Rt.Signature.Segmented bounds) in
  Rt.Signature.add b 120;
  (* the clamped address widened segment 0's range to [7, 150], covering 120 *)
  Alcotest.(check bool) "clamped add is sound (may widen)" true
    (Rt.Signature.intersects a b);
  let a' = Rt.Signature.create (Rt.Signature.Segmented bounds) in
  Rt.Signature.add a' 7;
  Alcotest.(check bool) "shared clamped address intersects" true
    (Rt.Signature.intersects a a');
  let c = Rt.Signature.create (Rt.Signature.Segmented bounds) in
  Rt.Signature.add c 250;
  Alcotest.(check bool) "distinct segments stay disjoint" false
    (Rt.Signature.intersects a c)

let prop_add_array_equals_add_list =
  QCheck.Test.make ~name:"add_array/add_iter = add_list" ~count:100
    QCheck.(list (int_range 0 299))
    (fun xs ->
      List.for_all
        (fun (_, kind) ->
          let a = Rt.Signature.create kind in
          let b = Rt.Signature.create kind in
          let c = Rt.Signature.create kind in
          Rt.Signature.add_list a xs;
          Rt.Signature.add_array b (Array.of_list xs);
          Rt.Signature.add_iter c (fun sink -> List.iter sink xs);
          let probe = Rt.Signature.create kind in
          Rt.Signature.add_list probe xs;
          Rt.Signature.count a = Rt.Signature.count b
          && Rt.Signature.count a = Rt.Signature.count c
          && (xs = []
             || (Rt.Signature.intersects a probe && Rt.Signature.intersects b probe
               && Rt.Signature.intersects c probe)))
        kinds)

(* The compact int encoding (the native queues' wire format, also carried by
   the simulator's DOMORE channels) must round-trip every constructor. *)
let prop_sync_cond_roundtrip =
  let open QCheck in
  let gen =
    Gen.oneof
      [
        Gen.return Rt.Sync_cond.End_token;
        Gen.map
          (fun iter -> Rt.Sync_cond.No_sync { iter })
          (Gen.oneof
             [ Gen.int_range 0 1_000_000; Gen.return (max_int lsr 2) ]);
        Gen.map2
          (fun dep_tid dep_iter -> Rt.Sync_cond.Wait { dep_tid; dep_iter })
          (Gen.oneof
             [ Gen.int_range 0 Rt.Sync_cond.max_tid;
               Gen.return Rt.Sync_cond.max_tid ])
          (Gen.oneof
             [ Gen.int_range 0 1_000_000; Gen.return Rt.Sync_cond.max_iter ]);
      ]
  in
  let print c = Format.asprintf "%a" Rt.Sync_cond.pp c in
  QCheck.Test.make ~name:"Sync_cond.to_int/of_int round-trips" ~count:500
    (QCheck.make ~print gen) (fun c ->
      Rt.Sync_cond.equal c (Rt.Sync_cond.of_int (Rt.Sync_cond.to_int c)))

(* Statistical envelope on the Bloom scheme: the false-positive rate of
   intersection tests between disjoint address sets must stay within the
   rate its bits/hashes parameters predict (and soundness keeps holding:
   overlapping sets always intersect). *)
let test_bloom_fp_rate () =
  let bits = 4096 and hashes = 3 and adds = 8 in
  let kind = Rt.Signature.Bloom { bits; hashes } in
  let st = Random.State.make [| 0x5eed |] in
  let trials = 400 in
  let fp = ref 0 in
  for _ = 1 to trials do
    (* Disjoint by construction: evens on one side, odds on the other. *)
    let a = Rt.Signature.create kind and b = Rt.Signature.create kind in
    for _ = 1 to adds do
      Rt.Signature.add a (2 * Random.State.int st 1_000_000);
      Rt.Signature.add b ((2 * Random.State.int st 1_000_000) + 1)
    done;
    if Rt.Signature.intersects a b then incr fp
  done;
  (* P(one bit set) = 1-(1-1/bits)^(adds*hashes); independent-bit model for
     a shared set bit between two such filters, with generous slack for the
     400-trial sample and for double-hash correlation. *)
  let p = 1. -. ((1. -. (1. /. float bits)) ** float (adds * hashes)) in
  let theory = 1. -. ((1. -. (p *. p)) ** float bits) in
  let observed = float !fp /. float trials in
  Alcotest.(check bool)
    (Printf.sprintf "FP rate %.3f within envelope of theoretical %.3f" observed
       theory)
    true
    (observed <= (2.5 *. theory) +. 0.03);
  (* Soundness side: a genuinely shared address always intersects. *)
  for i = 0 to 99 do
    let a = Rt.Signature.create kind and b = Rt.Signature.create kind in
    Rt.Signature.add a i;
    Rt.Signature.add b i;
    Rt.Signature.add b (i + 1_000_000);
    Alcotest.(check bool) "no false negatives" true (Rt.Signature.intersects a b)
  done

let suite =
  [
    Alcotest.test_case "shadow RAW/WAR/WAW" `Quick test_shadow_war_waw_raw;
    Alcotest.test_case "shadow no RAR sync" `Quick test_shadow_no_rar;
    Alcotest.test_case "shadow latest reader" `Quick test_shadow_reader_latest_kept;
    Alcotest.test_case "sync conditions" `Quick test_sync_cond;
    Alcotest.test_case "signature basics" `Quick test_signature_basics;
    QCheck_alcotest.to_alcotest prop_signature_sound;
    QCheck_alcotest.to_alcotest prop_exact_precise;
    Alcotest.test_case "segmented precision" `Quick test_segmented_beats_range;
    Alcotest.test_case "signature merge" `Quick test_signature_merge;
    Alcotest.test_case "signature log" `Quick test_siglog;
    QCheck_alcotest.to_alcotest prop_siglog_window;
    Alcotest.test_case "checkpoint" `Quick test_checkpoint;
    QCheck_alcotest.to_alcotest prop_shadow_matches_reference;
    QCheck_alcotest.to_alcotest prop_deps_accumulator_matches;
    Alcotest.test_case "shadow reset is O(1)" `Quick test_shadow_reset_o1;
    QCheck_alcotest.to_alcotest prop_signature_over_approximates_exact;
    Alcotest.test_case "segmented clamps out-of-range" `Quick test_segmented_clamps_out_of_range;
    QCheck_alcotest.to_alcotest prop_add_array_equals_add_list;
    QCheck_alcotest.to_alcotest prop_sync_cond_roundtrip;
    Alcotest.test_case "bloom false-positive envelope" `Quick test_bloom_fp_rate;
  ]
