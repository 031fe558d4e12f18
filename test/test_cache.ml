(* Tests for the incremental analysis cache: fingerprint stability and
   sensitivity, artifact envelope robustness, on-disk store durability, and
   the differential harness proving cached analysis ≡ fresh analysis for
   every registry workload on both backends. *)

module Ir = Xinv_ir
module Wl = Xinv_workloads
module C = Xinv_core.Crossinv
module Fp = Xinv_cache.Fingerprint
module Art = Xinv_cache.Artifact
module Store = Xinv_cache.Store
module An = Xinv_cache.Analysis

(* ---------- scratch directories ---------- *)

let tmpdir () =
  let d = Filename.temp_file "xinvcache" ".d" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  d

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> try Sys.remove (Filename.concat dir f) with _ -> ())
      (Sys.readdir dir);
    try Unix.rmdir dir with _ -> ()
  end

let with_dir f =
  let d = tmpdir () in
  Fun.protect ~finally:(fun () -> rm_rf d) (fun () -> f d)

(* ---------- hand-built workload for targeted mutations ---------- *)

(* One irregular update statement, every aspect parameterizable so each test
   can flip exactly one analysis-relevant property. *)
let hand_program ?(prefix = "") ?(outer = 3) ?(extra_read = false)
    ?(commutes = false) ?(side_effect = false) ?(off = 0) () =
  let data = prefix ^ "data" and tgt = prefix ^ "tgt" in
  let idx =
    let open Ir.Expr in
    ld tgt ((o * c 4) + i + c off)
  in
  let s =
    Ir.Stmt.make
      ~reads:
        ((if extra_read then [ Ir.Access.make data (Ir.Expr.c 0) ] else [])
        @ [ Ir.Access.make data idx ])
      ~writes:[ Ir.Access.make data idx ]
      ~commutes ~side_effect
      ~cost:(Ir.Stmt.fixed_cost 1.0)
      (prefix ^ "upd")
  in
  Ir.Program.make ~name:(prefix ^ "hand") ~outer_trip:outer
    [
      Ir.Program.inner ~label:(prefix ^ "L")
        ~trip:(Ir.Program.const_trip 4)
        [ s ];
    ]

let hand_env ?(prefix = "") ?(pval = 7) ?(tgt_tweak = false)
    ?(float_tweak = false) () =
  let data = prefix ^ "data" and tgt = prefix ^ "tgt" in
  let tgts = Array.init 16 (fun k -> k mod 8) in
  if tgt_tweak then tgts.(3) <- (tgts.(3) + 1) mod 8;
  let floats = Array.make 8 0. in
  if float_tweak then floats.(2) <- 42.;
  Ir.Env.make
    ~params:[ ("n", pval) ]
    (Ir.Memory.create
       [ Ir.Memory.Ints (tgt, tgts); Ir.Memory.Floats (data, floats) ])

let hex p env = Fp.to_hex (Fp.key p env)

(* ---------- fingerprint ---------- *)

let test_fp_deterministic () =
  let spec = Wl.Synth.default in
  let p1, fresh1 = Wl.Synth.make spec in
  let p2, fresh2 = Wl.Synth.make spec in
  (* p2's statements carry different sids than p1's: equality across the two
     builds is exactly sid/physical-identity insensitivity. *)
  let f1 = Fp.key p1 (fresh1 ()) and f2 = Fp.key p2 (fresh2 ()) in
  Alcotest.(check bool) "same spec, same fingerprint" true (Fp.equal f1 f2);
  Alcotest.(check bool)
    "repeated keying is stable" true
    (Fp.equal f1 (Fp.key p1 (fresh1 ())));
  Alcotest.(check int) "32 hex chars" 32 (String.length (Fp.to_hex f1));
  (match Fp.of_hex (Fp.to_hex f1) with
  | Some f -> Alcotest.(check bool) "of_hex . to_hex = id" true (Fp.equal f f1)
  | None -> Alcotest.fail "of_hex rejected to_hex output");
  Alcotest.(check (option Alcotest.reject)) "of_hex rejects junk" None
    (Fp.of_hex "zz");
  let k, names = Fp.keyed p1 (fresh1 ()) in
  Alcotest.(check bool) "keyed = key" true (Fp.equal k f1);
  Alcotest.(check (list string))
    "keyed names = name_vector" (Fp.name_vector p1 (fresh1 ()))
    names

(* Restart stability: the fingerprint is a function of the workload alone,
   not of the process that computes it.  These literals were produced by
   this same traversal; any change to the traversal or the mixing must bump
   {!Art.schema_version} and these pins. *)
let test_fp_golden () =
  let p, fresh = Wl.Synth.make Wl.Synth.default in
  Alcotest.(check string)
    "Synth default pinned" "4b82a318229614b20190191d9f5f6fef"
    (hex p (fresh ()));
  Alcotest.(check string)
    "hand workload pinned" "ecd4414d032e407d085b85b16e5deec4"
    (hex (hand_program ()) (hand_env ()));
  let symm = Wl.Registry.find "SYMM" in
  Alcotest.(check string)
    "SYMM train pinned" "71fc7f4fa1b8ae9517b5095918a97850"
    (hex
       (symm.Wl.Workload.program Wl.Workload.Train)
       (symm.Wl.Workload.fresh_env Wl.Workload.Train))

let test_fp_name_insensitive () =
  let a = (hand_program (), hand_env ()) in
  let b = (hand_program ~prefix:"x_" (), hand_env ~prefix:"x_" ()) in
  Alcotest.(check string)
    "consistent renaming preserves the fingerprint" (hex (fst a) (snd a))
    (hex (fst b) (snd b));
  Alcotest.(check bool)
    "but the name vectors differ" false
    (Fp.name_vector (fst a) (snd a) = Fp.name_vector (fst b) (snd b))

let test_fp_data_sensitivity () =
  let p = hand_program () in
  let base = hex p (hand_env ()) in
  Alcotest.(check string)
    "float contents are value data: fingerprint unchanged" base
    (hex p (hand_env ~float_tweak:true ()));
  Alcotest.(check bool)
    "integer (index-array) contents change it" false
    (base = hex p (hand_env ~tgt_tweak:true ()));
  Alcotest.(check bool)
    "runtime parameters change it" false
    (base = hex p (hand_env ~pval:8 ()))

let test_fp_structure_sensitivity () =
  let base = hex (hand_program ()) (hand_env ()) in
  let differs name p = Alcotest.(check bool) name false (base = hex p (hand_env ())) in
  differs "extra read access" (hand_program ~extra_read:true ());
  differs "commutativity flag" (hand_program ~commutes:true ());
  differs "side-effect flag" (hand_program ~side_effect:true ());
  differs "affine constant in the index" (hand_program ~off:1 ());
  differs "outer trip count" (hand_program ~outer:4 ())

let prop_fp_synth_mutations () =
  (* 200 random synthetic workloads: rebuilding is stable, and mutating any
     spec field that feeds analysis (problem size, access pattern seed, cost
     model, conflict structure) moves the fingerprint.  Deterministic
     master seed, so the property is reproducible. *)
  let rng = Xinv_util.Prng.create ~seed:9 in
  let fp_of spec =
    let p, fresh = Wl.Synth.make spec in
    hex p (fresh ())
  in
  for _ = 1 to 200 do
    let spec =
      {
        Wl.Synth.outer = Xinv_util.Prng.int_in rng 2 5;
        inners = Xinv_util.Prng.int_in rng 1 2;
        trip = Xinv_util.Prng.int_in rng 4 8;
        cells = Xinv_util.Prng.int_in rng 8 32;
        within_safe = Xinv_util.Prng.int_in rng 0 1 = 1;
        base_cost = 1.0 +. float_of_int (Xinv_util.Prng.int_in rng 0 3);
        seed = Xinv_util.Prng.int_in rng 0 1_000_000;
      }
    in
    let base = fp_of spec in
    Alcotest.(check string) "rebuild is stable" base (fp_of spec);
    let moved name spec' =
      Alcotest.(check bool) name false (base = fp_of spec')
    in
    moved "seed" { spec with Wl.Synth.seed = spec.Wl.Synth.seed + 1 };
    moved "trip" { spec with Wl.Synth.trip = spec.Wl.Synth.trip + 1 };
    moved "cells" { spec with Wl.Synth.cells = spec.Wl.Synth.cells + 1 };
    moved "outer" { spec with Wl.Synth.outer = spec.Wl.Synth.outer + 1 };
    moved "inners" { spec with Wl.Synth.inners = spec.Wl.Synth.inners + 1 };
    (* [within_safe] only steers how the index array is drawn; when the
       uniform draw happens to be duplicate-free the two modes produce the
       same workload.  The honest property: the fingerprint moves exactly
       when the index contents move. *)
    let tgt_of spec =
      let _, fresh = Wl.Synth.make spec in
      Array.copy
        (Ir.Memory.int_data (fresh ()).Ir.Env.mem "tgt")
    in
    let flipped =
      { spec with Wl.Synth.within_safe = not spec.Wl.Synth.within_safe }
    in
    Alcotest.(check bool)
      "within_safe moves fp iff it moves the index array"
      (tgt_of spec <> tgt_of flipped)
      (base <> fp_of flipped);
    moved "base_cost"
      { spec with Wl.Synth.base_cost = spec.Wl.Synth.base_cost +. 0.5 }
  done

(* ---------- artifact envelope ---------- *)

let sample_artifact () =
  let p, fresh = Wl.Synth.make Wl.Synth.default in
  let env = fresh () in
  let names = Fp.name_vector p env in
  let prof = Xinv_speccross.Profiler.profile p (fresh ()) in
  { (Art.empty ~names) with Art.profile = Some prof }

let sample_tuned =
  {
    Xinv_cache.Policy.policy = Xinv_cache.Policy.default;
    wall_ns = 1.5e6;
    seq_wall_ns = 3e6;
    trials = 4;
    seed = 7;
  }

(* The smallest valid payload: a tuned policy and nothing else. *)
let policy_artifact names = { (Art.empty ~names) with Art.policy = Some sample_tuned }

let test_artifact_roundtrip () =
  let a = sample_artifact () in
  (match Art.decode (Art.encode a) with
  | Ok a' -> Alcotest.(check bool) "decode . encode = id" true (a = a')
  | Error r -> Alcotest.fail ("roundtrip rejected: " ^ r));
  let tuned = policy_artifact [ "x" ] in
  match Art.decode (Art.encode tuned) with
  | Ok n -> Alcotest.(check bool) "tuned policy survives" true (n = tuned)
  | Error r -> Alcotest.fail ("policy roundtrip rejected: " ^ r)

let test_artifact_rejects () =
  let raw = Art.encode (sample_artifact ()) in
  (match Art.decode "" with
  | Error "truncated" -> ()
  | _ -> Alcotest.fail "zero-length accepted");
  (* Every prefix truncation is rejected. *)
  for k = 0 to String.length raw - 1 do
    match Art.decode (String.sub raw 0 k) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "truncation to %d bytes accepted" k
  done;
  (* A wrong-version file is rejected as "version", not misread. *)
  let v = Bytes.of_string raw in
  Bytes.set v 10 (Char.chr (Char.code (Bytes.get v 10) + 1));
  (match Art.decode (Bytes.to_string v) with
  | Error "version" -> ()
  | Error r -> Alcotest.failf "version bump rejected as %s" r
  | Ok _ -> Alcotest.fail "version bump accepted")

let test_artifact_bitflip_fuzz () =
  (* Single-bit corruption anywhere in the file — header, digest or payload
     — must be detected.  This sweeps every byte (> 100 mutations). *)
  let raw = Art.encode (sample_artifact ()) in
  let mutations = ref 0 in
  for pos = 0 to String.length raw - 1 do
    List.iter
      (fun bit ->
        incr mutations;
        let m = Bytes.of_string raw in
        Bytes.set m pos (Char.chr (Char.code (Bytes.get m pos) lxor bit));
        match Art.decode (Bytes.to_string m) with
        | Error _ -> ()
        | Ok _ ->
            Alcotest.failf "flip of bit %d at byte %d went undetected" bit pos)
      [ 0x01; 0x10; 0x80 ]
  done;
  Alcotest.(check bool) "fuzz corpus >= 100 mutations" true (!mutations >= 100)

(* ---------- store ---------- *)

let test_store_roundtrip () =
  with_dir (fun dir ->
      let obs = Xinv_obs.Recorder.create () in
      let st = Store.open_ ~obs ~dir () in
      let p, fresh = Wl.Synth.make Wl.Synth.default in
      let env = fresh () in
      let fp, names = Fp.keyed p env in
      (match Store.load st fp with
      | Error "absent" -> ()
      | _ -> Alcotest.fail "empty store should miss");
      let art = policy_artifact names in
      Store.save st fp art;
      (match Store.load st fp with
      | Ok a -> Alcotest.(check bool) "stored = loaded" true (a = art)
      | Error r -> Alcotest.fail ("load failed: " ^ r));
      Alcotest.(check int) "one store" 1 (Store.stores st);
      Alcotest.(check int) "no quarantine" 0 (Store.invalidated st);
      let counters =
        Xinv_obs.Metrics.counters (Xinv_obs.Recorder.metrics obs)
      in
      Alcotest.(check (option int))
        "cache.store counter wired" (Some 1)
        (List.assoc_opt "cache.store" counters);
      let s = Store.stats ~dir in
      Alcotest.(check int) "stats sees one entry" 1 s.Store.s_entries;
      Alcotest.(check int) "ls agrees" 1 (List.length (Store.ls ~dir));
      Alcotest.(check int) "clear removes it" 1 (Store.clear ~dir);
      Alcotest.(check int) "dir empty after clear" 0
        (Store.stats ~dir).Store.s_entries)

let test_store_quarantine () =
  with_dir (fun dir ->
      let st = Store.open_ ~dir () in
      let p, fresh = Wl.Synth.make Wl.Synth.default in
      let fp = Fp.key p (fresh ()) in
      let path = Filename.concat dir (Fp.to_hex fp ^ ".xc") in
      let oc = open_out_bin path in
      output_string oc "definitely not a cache entry";
      close_out oc;
      (match Store.load st fp with
      | Error "magic" | Error "truncated" -> ()
      | Error r -> Alcotest.failf "unexpected reason %s" r
      | Ok _ -> Alcotest.fail "garbage accepted");
      Alcotest.(check int) "quarantined" 1 (Store.invalidated st);
      Alcotest.(check bool) "entry moved aside" false (Sys.file_exists path);
      Alcotest.(check int) "stats counts quarantine" 1
        (Store.stats ~dir).Store.s_quarantined;
      match Store.load st fp with
      | Error "absent" -> ()
      | _ -> Alcotest.fail "slot should be free after quarantine")

let test_store_stale_version () =
  (* An intact entry written by the previous schema: valid checksum, older
     version.  It is outdated, not corrupt — a plain miss that stays in its
     slot (under the size cap) until the next save replaces it. *)
  with_dir (fun dir ->
      let st = Store.open_ ~dir () in
      let p, fresh = Wl.Synth.make Wl.Synth.default in
      let fp, names = Fp.keyed p (fresh ()) in
      let path = Filename.concat dir (Fp.to_hex fp ^ ".xc") in
      let art = policy_artifact names in
      let old = Bytes.of_string (Art.encode art) in
      Bytes.set old 10 (Char.chr (Art.schema_version - 1));
      let oc = open_out_bin path in
      output_bytes oc old;
      close_out oc;
      (match Store.load st fp with
      | Error "version" -> ()
      | Error r -> Alcotest.failf "stale entry rejected as %s" r
      | Ok _ -> Alcotest.fail "stale entry accepted");
      Alcotest.(check int) "not quarantined" 0 (Store.invalidated st);
      Alcotest.(check int) "no quarantined file" 0
        (Store.stats ~dir).Store.s_quarantined;
      Alcotest.(check bool) "entry left in place" true (Sys.file_exists path);
      Store.save st fp art;
      match Store.load st fp with
      | Ok a -> Alcotest.(check bool) "save replaced it" true (a = art)
      | Error r -> Alcotest.fail ("replacement failed: " ^ r))

let test_store_lru_eviction () =
  with_dir (fun dir ->
      let fp_of seed =
        let p, fresh =
          Wl.Synth.make { Wl.Synth.default with Wl.Synth.seed }
        in
        Fp.keyed p (fresh ())
      in
      (* Size one entry in a probe directory, then cap the real store at two
         and a half entries: the third save must evict the oldest. *)
      let entry_bytes =
        with_dir (fun probe ->
            let ps = Store.open_ ~dir:probe () in
            let fp, names = fp_of 99 in
            Store.save ps fp (policy_artifact names);
            (Store.stats ~dir:probe).Store.s_bytes)
      in
      let cap = (entry_bytes * 5) / 2 in
      let st = Store.open_ ~max_bytes:cap ~dir () in
      let save_at seed mtime =
        let fp, names = fp_of seed in
        Store.save st fp (policy_artifact names);
        let path = Filename.concat dir (Fp.to_hex fp ^ ".xc") in
        Unix.utimes path mtime mtime;
        fp
      in
      let old_fp = save_at 1 1000. in
      let mid_fp = save_at 2 2000. in
      let new_fp = save_at 3 3000. in
      Alcotest.(check bool) "evicted something" true (Store.evictions st > 0);
      (match Store.load st old_fp with
      | Error "absent" -> ()
      | _ -> Alcotest.fail "oldest entry should have been evicted");
      (match Store.load st new_fp with
      | Ok _ -> ()
      | Error r -> Alcotest.fail ("newest entry lost: " ^ r));
      ignore mid_fp;
      Alcotest.(check bool) "size respects the cap" true
        ((Store.stats ~dir).Store.s_bytes <= cap))

let test_store_crash_mid_write () =
  with_dir (fun dir ->
      let st = Store.open_ ~dir () in
      let p, fresh = Wl.Synth.make Wl.Synth.default in
      let env = fresh () in
      let fp, names = Fp.keyed p env in
      let art = policy_artifact names in
      (* Writer dies before publication: readers never see the entry. *)
      Store.inject st (Some Store.Crash_before_rename);
      Store.save st fp art;
      (match Store.load st fp with
      | Error "absent" -> ()
      | _ -> Alcotest.fail "unpublished entry became visible");
      Alcotest.(check int) "tmp left behind" 1 (Store.stats ~dir).Store.s_tmp;
      (* Writer dies mid-write: same story, torn bytes stay invisible. *)
      Store.inject st (Some Store.Torn_write);
      Store.save st fp art;
      (match Store.load st fp with
      | Error "absent" -> ()
      | _ -> Alcotest.fail "torn entry became visible");
      (* Re-opening the store sweeps the debris of both crashes. *)
      let _st2 = Store.open_ ~dir () in
      Alcotest.(check int) "tmp swept at open" 0 (Store.stats ~dir).Store.s_tmp;
      (* The injected fault fired exactly once each; a normal save works. *)
      Store.save st fp art;
      match Store.load st fp with
      | Ok a -> Alcotest.(check bool) "entry intact" true (a = art)
      | Error r -> Alcotest.fail ("post-crash save failed: " ^ r))

let test_store_concurrent_readers () =
  (* Two domains racing on one directory: a writer republishing the entry in
     two sizes as fast as it can, a reader polling it.  Atomic tmp+rename
     means the reader sees only absent or complete entries — a single decode
     failure (torn read) fails the test. *)
  with_dir (fun dir ->
      let p, fresh = Wl.Synth.make Wl.Synth.default in
      let env = fresh () in
      let fp, names = Fp.keyed p env in
      let small = policy_artifact names in
      let big =
        {
          (Art.empty ~names) with
          Art.profile = Some (Xinv_speccross.Profiler.profile p (fresh ()));
        }
      in
      let reader_store = Store.open_ ~dir () in
      let stop = Atomic.make false in
      let writer =
        Domain.spawn (fun () ->
            let st = Store.open_ ~dir () in
            for k = 1 to 300 do
              Store.save st fp (if k land 1 = 0 then small else big)
            done;
            Atomic.set stop true)
      in
      let seen = ref 0 and torn = ref 0 in
      while not (Atomic.get stop) do
        match Store.load reader_store fp with
        | Ok a ->
            incr seen;
            if not (a = small || a = big) then incr torn
        | Error "absent" -> ()
        | Error _ -> incr torn
      done;
      Domain.join writer;
      Alcotest.(check int) "no torn or corrupt reads" 0 !torn;
      Alcotest.(check int) "nothing quarantined by the race" 0
        (Store.invalidated reader_store);
      Alcotest.(check bool) "reader observed published entries" true (!seen > 0))

(* ---------- analysis: cached = fresh ---------- *)

let test_profile_cached_equals_fresh () =
  with_dir (fun dir ->
      let p, fresh_env = Wl.Synth.make Wl.Synth.default in
      let fresh = Xinv_speccross.Profiler.profile p (fresh_env ()) in
      let writer = An.make ~mode:`Rw ~dir () in
      Alcotest.(check bool)
        "cold profile = fresh profile" true
        (An.profile writer p (fresh_env ()) = fresh);
      let reader = An.make ~mode:`Ro ~dir () in
      let env = fresh_env () in
      let before = Ir.Memory.snapshot env.Ir.Env.mem in
      Alcotest.(check bool)
        "warm profile = fresh profile" true
        (An.profile reader p env = fresh);
      Alcotest.(check (pair int int))
        "served from the store" (1, 0)
        (An.hits reader, An.misses reader);
      (* The uncached profiler executes the program (training run); a hit
         must leave the environment untouched. *)
      Alcotest.(check bool)
        "hit does not modify the environment" true
        (Ir.Memory.equal before env.Ir.Env.mem))

let test_alias_detected () =
  with_dir (fun dir ->
      (* Renamed clone: same fingerprint, different names.  Replaying the
         original's artifact would attribute its dependences to the wrong
         arrays, so the lookup must treat it as a miss. *)
      let writer = An.make ~mode:`Rw ~dir () in
      ignore (An.profile writer (hand_program ()) (hand_env ()));
      let reader = An.make ~mode:`Ro ~dir () in
      let clone = hand_program ~prefix:"x_" () in
      let clone_env = hand_env ~prefix:"x_" () in
      Alcotest.(check string)
        "clone shares the fingerprint"
        (hex (hand_program ()) (hand_env ()))
        (hex clone clone_env);
      Alcotest.(check bool)
        "alias profiled fresh" true
        (Xinv_speccross.Profiler.profile clone (hand_env ~prefix:"x_" ())
        = An.profile reader clone clone_env);
      Alcotest.(check (pair int int))
        "alias counted as a miss" (0, 1)
        (An.hits reader, An.misses reader))

let test_ro_never_writes () =
  with_dir (fun dir ->
      let ro = An.make ~mode:`Ro ~dir () in
      let p, fresh = Wl.Synth.make Wl.Synth.default in
      ignore (An.profile ro p (fresh ()));
      ignore (An.profile ro p (fresh ()));
      An.store_policy ro p (fresh ()) sample_tuned;
      Alcotest.(check int) "both were misses" 2 (An.misses ro);
      Alcotest.(check int) "ro mode published nothing" 0
        (Store.stats ~dir).Store.s_entries)

let test_obs_wiring () =
  with_dir (fun dir ->
      let obs = Xinv_obs.Recorder.create () in
      let an = An.make ~obs ~mode:`Rw ~dir () in
      let p, fresh = Wl.Synth.make Wl.Synth.default in
      ignore (An.profile an p (fresh ()));
      ignore (An.profile an p (fresh ()));
      let counters = Xinv_obs.Metrics.counters (Xinv_obs.Recorder.metrics obs) in
      Alcotest.(check (option int))
        "cache.miss counter" (Some 1)
        (List.assoc_opt "cache.miss" counters);
      Alcotest.(check (option int))
        "cache.hit counter" (Some 1)
        (List.assoc_opt "cache.hit" counters))

let test_corrupt_store_fuzz () =
  (* Corruption injected at the store level, observed through the full
     analysis path: for dozens of single-byte mutations of a valid entry,
     the cached pipeline must return the exact fresh profile (corrupt entry
     quarantined, fresh profiling run) and never crash. *)
  with_dir (fun dir ->
      let symm = Wl.Registry.find "SYMM" in
      let p = symm.Wl.Workload.program Wl.Workload.Train in
      let env () = symm.Wl.Workload.fresh_env Wl.Workload.Train in
      let fresh = Xinv_speccross.Profiler.profile p (env ()) in
      let seed = An.make ~mode:`Rw ~dir () in
      ignore (An.profile seed p (env ()));
      let fp = Fp.key p (env ()) in
      let path = Filename.concat dir (Fp.to_hex fp ^ ".xc") in
      let raw =
        let ic = open_in_bin path in
        let s = really_input_string ic (in_channel_length ic) in
        close_in ic;
        s
      in
      let quarantines = ref 0 in
      List.iter
        (fun pos ->
          let m = Bytes.of_string raw in
          Bytes.set m pos (Char.chr (Char.code (Bytes.get m pos) lxor 0x40));
          let oc = open_out_bin path in
          output_bytes oc m;
          close_out oc;
          let an = An.make ~mode:`Ro ~dir () in
          Alcotest.(check bool)
            (Printf.sprintf "corrupt@%d falls back to fresh" pos)
            true
            (An.profile an p (env ()) = fresh);
          quarantines := !quarantines + Store.invalidated (An.store an);
          (* clean slate for the next mutation *)
          ignore (Store.clear ~dir))
        (List.init 24 (fun k -> k * String.length raw / 24));
      Alcotest.(check bool) "mutations were quarantined" true (!quarantines > 0))

(* ---------- differential: full runs, every workload, both backends ---------- *)

let sim_techniques = [ C.Inspector; C.Tls; C.Domore; C.Domore_dup; C.Speccross ]

(* The cache holds only what a profiling run measures: a SPECCROSS cell
   misses cold and hits warm; a plan-only cell (DOMORE, DOMORE-dup,
   Inspector, TLS) derives its MTCG plan fresh each time, so it neither
   hits nor misses and leaves the store empty. *)
let check_cache_traffic ~name ~dir tech (cold : C.outcome) (warm : C.outcome) =
  if tech = C.Speccross then begin
    Alcotest.(check bool)
      (name "cold run populated the cache")
      true (cold.C.cache_misses > 0);
    Alcotest.(check (pair bool int))
      (name "warm run served entirely from cache")
      (true, 0)
      (warm.C.cache_hits > 0, warm.C.cache_misses)
  end
  else begin
    Alcotest.(check (pair int int))
      (name "cold run consults no cached analysis")
      (0, 0)
      (cold.C.cache_hits, cold.C.cache_misses);
    Alcotest.(check (pair int int))
      (name "warm run consults no cached analysis")
      (0, 0)
      (warm.C.cache_hits, warm.C.cache_misses);
    Alcotest.(check int) (name "store stays empty") 0
      (Store.stats ~dir).Store.s_entries
  end

let test_differential_sim_registry () =
  List.iter
    (fun (wl : Wl.Workload.t) ->
      List.iter
        (fun tech ->
          match C.applicable tech wl with
          | Error _ -> ()
          | Ok () -> (
              let go ?(cache = `Off) ?cache_dir () =
                C.run_request @@ C.Request.make ?cache_dir ~cache ~input:Wl.Workload.Train ~technique:tech
                  ~threads:4 wl
              in
              match go () with
              | exception Failure _ ->
                  (* applicable on ref, inapplicable on train: nothing to
                     compare at this input scale *)
                  ()
              | fresh ->
                  with_dir (fun dir ->
                      let name what =
                        Printf.sprintf "%s/%s: %s" wl.Wl.Workload.name
                          (C.technique_name tech) what
                      in
                      let cold = go ~cache:`Rw ~cache_dir:dir () in
                      let warm = go ~cache:`Rw ~cache_dir:dir () in
                      check_cache_traffic ~name ~dir tech cold warm;
                      (* The simulator is deterministic: bit-equal virtual
                         cost is the strongest possible cached = fresh
                         statement. *)
                      Alcotest.(check (float 0.))
                        (name "cold cost bit-equal to fresh")
                        (C.cost_value fresh.C.cost)
                        (C.cost_value cold.C.cost);
                      Alcotest.(check (float 0.))
                        (name "warm cost bit-equal to fresh")
                        (C.cost_value fresh.C.cost)
                        (C.cost_value warm.C.cost);
                      Alcotest.(check bool)
                        (name "warm profile = fresh profile")
                        true
                        (warm.C.profile = fresh.C.profile);
                      Alcotest.(check (list (pair string int)))
                        (name "no mismatches, cached or fresh")
                        fresh.C.mismatches warm.C.mismatches;
                      Alcotest.(check bool)
                        (name "all three verified")
                        true
                        (fresh.C.verified && cold.C.verified && warm.C.verified))))
        sim_techniques)
    (Wl.Registry.all ())

let test_differential_native_registry () =
  List.iter
    (fun (wl : Wl.Workload.t) ->
      List.iter
        (fun tech ->
          match C.applicable ~backend:`Native tech wl with
          | Error _ -> ()
          | Ok () -> (
              let go ?(cache = `Off) ?cache_dir () =
                C.run_request @@ C.Request.make
                  ~backend:(`Native C.native_defaults)
                  ?cache_dir ~cache ~input:Wl.Workload.Train ~technique:tech
                  ~threads:2 wl
              in
              match go () with
              | exception Failure _ -> ()
              | fresh ->
                  with_dir (fun dir ->
                      let name what =
                        Printf.sprintf "native %s/%s: %s" wl.Wl.Workload.name
                          (C.technique_name tech) what
                      in
                      let cold = go ~cache:`Rw ~cache_dir:dir () in
                      let warm = go ~cache:`Rw ~cache_dir:dir () in
                      check_cache_traffic ~name ~dir tech cold warm;
                      Alcotest.(check bool)
                        (name "all three verified")
                        true
                        (fresh.C.verified && cold.C.verified && warm.C.verified);
                      Alcotest.(check bool)
                        (name "no degradation anywhere")
                        true
                        (fresh.C.degraded = [] && cold.C.degraded = []
                       && warm.C.degraded = []);
                      (* Dispatch counts are a function of the plan and
                         the profile alone — a replayed profile must drive
                         the engines identically. *)
                      let counts (o : C.outcome) =
                        match o.C.nrun with
                        | None -> (-1, -1, -1)
                        | Some nr ->
                            ( nr.Xinv_native.Nrun.tasks,
                              nr.Xinv_native.Nrun.conds,
                              nr.Xinv_native.Nrun.invocations )
                      in
                      Alcotest.(check (triple int int int))
                        (name "task/cond/invocation counts match fresh")
                        (counts fresh) (counts warm))))
        [ C.Domore; C.Speccross ])
    (Wl.Registry.all ())

let test_degradation_with_cache () =
  (* An armed fault degrades the cached run exactly like the fresh one:
     SPECCROSS falls back to barriers.  The profile is taken once per run,
     before the first attempt, so the cold run misses once and the warm run
     replays it once. *)
  with_dir (fun dir ->
      let wl = Wl.Registry.find "SYMM" in
      let fault =
        match Xinv_native.Fault.spec_of_string "raise@*:2" with
        | Ok sp -> sp
        | Error m -> Alcotest.fail m
      in
      let go ?(cache = `Off) ?cache_dir () =
        C.run_request @@ C.Request.make
          ~backend:(`Native { C.native_defaults with C.fault = Some fault })
          ?cache_dir ~cache ~input:Wl.Workload.Train ~technique:C.Speccross
          ~threads:2 wl
      in
      let fresh = go () in
      let cold = go ~cache:`Rw ~cache_dir:dir () in
      let warm = go ~cache:`Rw ~cache_dir:dir () in
      let chain (o : C.outcome) =
        List.map (fun (s : C.degrade_step) -> (s.C.d_from, s.C.d_to)) o.C.degraded
      in
      Alcotest.(check bool) "fault forced degradation" true (fresh.C.degraded <> []);
      Alcotest.(check bool)
        "cached runs degrade along the same chain" true
        (chain fresh = chain cold && chain fresh = chain warm);
      Alcotest.(check bool)
        "degraded cached runs still verify" true
        (fresh.C.verified && cold.C.verified && warm.C.verified);
      Alcotest.(check (pair int int)) "cold run one miss" (0, 1)
        (cold.C.cache_hits, cold.C.cache_misses);
      Alcotest.(check (pair int int)) "warm run one hit, no miss" (1, 0)
        (warm.C.cache_hits, warm.C.cache_misses))

let suite =
  [
    Alcotest.test_case "fingerprint: deterministic, sid-insensitive" `Quick
      test_fp_deterministic;
    Alcotest.test_case "fingerprint: pinned across restarts" `Quick
      test_fp_golden;
    Alcotest.test_case "fingerprint: name-insensitive" `Quick
      test_fp_name_insensitive;
    Alcotest.test_case "fingerprint: float-blind, int/param-sensitive" `Quick
      test_fp_data_sensitivity;
    Alcotest.test_case "fingerprint: structure mutations move it" `Quick
      test_fp_structure_sensitivity;
    Alcotest.test_case "fingerprint: 200 random synth mutations" `Quick
      prop_fp_synth_mutations;
    Alcotest.test_case "artifact: roundtrip" `Quick test_artifact_roundtrip;
    Alcotest.test_case "artifact: rejects truncation and wrong version" `Quick
      test_artifact_rejects;
    Alcotest.test_case "artifact: bit-flip fuzz (every byte)" `Quick
      test_artifact_bitflip_fuzz;
    Alcotest.test_case "store: roundtrip, counters, maintenance" `Quick
      test_store_roundtrip;
    Alcotest.test_case "store: corrupt entry quarantined" `Quick
      test_store_quarantine;
    Alcotest.test_case "store: stale schema is a miss, not corruption" `Quick
      test_store_stale_version;
    Alcotest.test_case "store: LRU size cap" `Quick test_store_lru_eviction;
    Alcotest.test_case "store: crash mid-write stays invisible" `Quick
      test_store_crash_mid_write;
    Alcotest.test_case "store: concurrent reader never sees torn entries"
      `Quick test_store_concurrent_readers;
    Alcotest.test_case "analysis: cached profile = fresh, no mutation" `Quick
      test_profile_cached_equals_fresh;
    Alcotest.test_case "analysis: renamed alias re-analyzed" `Quick
      test_alias_detected;
    Alcotest.test_case "analysis: ro mode never writes" `Quick
      test_ro_never_writes;
    Alcotest.test_case "analysis: metrics wired" `Quick
      test_obs_wiring;
    Alcotest.test_case "analysis: corrupted-store fuzz falls back" `Quick
      test_corrupt_store_fuzz;
    Alcotest.test_case "differential: sim registry cached = fresh" `Slow
      test_differential_sim_registry;
    Alcotest.test_case "differential: native registry cached = fresh" `Slow
      test_differential_native_registry;
    Alcotest.test_case "differential: degradation with cache" `Slow
      test_degradation_with_cache;
  ]
