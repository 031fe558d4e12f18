(* Tests for the native (real OCaml 5 domains) backend: the lock-free
   primitives it is built from, and cross-validation of every registry
   workload against both sequential execution and the simulator. *)

module Ir = Xinv_ir
module Par = Xinv_parallel
module Nat = Xinv_native
module Wl = Xinv_workloads
module C = Xinv_core.Crossinv

(* ---------- primitives ---------- *)

let test_spsc_two_domains () =
  let q = Nat.Spsc.create ~dummy:(-1) ~capacity:8 in
  let n = 10_000 in
  let producer = Domain.spawn (fun () -> for i = 0 to n - 1 do Nat.Spsc.push q i done) in
  let bad = ref 0 in
  for i = 0 to n - 1 do
    if Nat.Spsc.pop q <> i then incr bad
  done;
  Domain.join producer;
  Alcotest.(check int) "FIFO order preserved across domains" 0 !bad;
  Alcotest.(check (option int)) "drained" None (Nat.Spsc.try_pop q)

let test_spsc_exact_capacity () =
  (* Exact occupancy semantics: a capacity-[n] queue admits exactly [n]
     items, even though the backing buffer rounds up to a power of two.
     Boundary capacities: 1, 2, and 2^k +/- 1 around several k. *)
  List.iter
    (fun cap ->
      let q = Nat.Spsc.create ~dummy:0 ~capacity:cap in
      Alcotest.(check int)
        (Printf.sprintf "capacity %d reported exactly" cap)
        cap (Nat.Spsc.capacity q);
      for i = 1 to cap do
        Alcotest.(check bool)
          (Printf.sprintf "cap %d: push %d fits" cap i)
          true (Nat.Spsc.try_push q i)
      done;
      Alcotest.(check bool)
        (Printf.sprintf "cap %d: push %d rejected" cap (cap + 1))
        false
        (Nat.Spsc.try_push q (cap + 1));
      Alcotest.(check int) "length = capacity when full" cap (Nat.Spsc.length q);
      (* One pop must open exactly one slot (wrap math at exact capacity). *)
      Alcotest.(check (option int)) "FIFO head" (Some 1) (Nat.Spsc.try_pop q);
      Alcotest.(check bool) "slot reopens after pop" true
        (Nat.Spsc.try_push q (cap + 1));
      Alcotest.(check bool) "and only one slot" false (Nat.Spsc.try_push q 0))
    [ 1; 2; 3; 5; 7; 8; 9; 15; 17; 31; 33 ]

let test_spsc_batch_equivalence () =
  (* Property: the stream a Batch producer publishes is word-for-word the
     stream a plain push loop would have produced, for random word counts,
     ring capacities, batch sizes, and consumer chunk sizes, with a consumer
     that randomly mixes pop and pop_chunk. *)
  let rng = Xinv_util.Prng.create ~seed:42 in
  for trial = 1 to 30 do
    let n = Xinv_util.Prng.int_in rng 1 400 in
    let cap = Xinv_util.Prng.int_in rng 1 16 in
    let bsize = Xinv_util.Prng.int_in rng 1 16 in
    let crng = Xinv_util.Prng.split rng in
    let input = Array.init n (fun i -> (trial * 1000) + i) in
    let q = Nat.Spsc.create ~dummy:(-1) ~capacity:cap in
    let out = Array.make n (-2) in
    let consumer =
      Domain.spawn (fun () ->
          let buf = Array.make 8 (-1) in
          let got = ref 0 in
          while !got < n do
            if Xinv_util.Prng.bool crng then begin
              let want = Stdlib.min (Xinv_util.Prng.int_in crng 1 8) (n - !got) in
              let k = Nat.Spsc.pop_chunk q buf ~pos:0 ~len:want in
              Array.blit buf 0 out !got k;
              got := !got + k;
              if k = 0 then Domain.cpu_relax ()
            end
            else begin
              out.(!got) <- Nat.Spsc.pop q;
              incr got
            end
          done)
    in
    let b = Nat.Spsc.Batch.create ~size:bsize q in
    Array.iter
      (fun x ->
        (* Randomly interleave non-blocking adds (with retry), blocking
           pushes, and spontaneous flushes — all must preserve order. *)
        (match Xinv_util.Prng.int rng 4 with
        | 0 ->
            while not (Nat.Spsc.Batch.add b x) do
              Domain.cpu_relax ()
            done
        | 1 ->
            Nat.Spsc.Batch.push b x;
            ignore (Nat.Spsc.Batch.try_flush b)
        | _ -> Nat.Spsc.Batch.push b x);
        if Xinv_util.Prng.chance rng 0.1 then Nat.Spsc.Batch.flush b)
      input;
    Nat.Spsc.Batch.flush b;
    Domain.join consumer;
    Alcotest.(check (array int))
      (Printf.sprintf "trial %d (n=%d cap=%d batch=%d): streams identical"
         trial n cap bsize)
      input out
  done

let test_spsc_batch_close_drain () =
  (* Early close: already-published words drain in order, then Closed; a
     producer buffer stranded behind a closed-and-full ring raises Closed
     out of flush rather than spinning forever. *)
  let q = Nat.Spsc.create ~dummy:0 ~capacity:8 in
  let b = Nat.Spsc.Batch.create ~size:4 q in
  for i = 1 to 6 do
    Nat.Spsc.Batch.push b i
  done;
  Nat.Spsc.Batch.flush b;
  Alcotest.(check int) "flushed buffer is empty" 0 (Nat.Spsc.Batch.pending b);
  Nat.Spsc.close q;
  for i = 1 to 6 do
    Alcotest.(check int) "drains in order after close" i (Nat.Spsc.pop q)
  done;
  Alcotest.check_raises "pop past the drained tail" Nat.Spsc.Closed (fun () ->
      ignore (Nat.Spsc.pop q));
  Alcotest.check_raises "push into closed queue" Nat.Spsc.Closed (fun () ->
      Nat.Spsc.Batch.push b 7);
  let qf = Nat.Spsc.create ~dummy:0 ~capacity:2 in
  let bf = Nat.Spsc.Batch.create ~size:4 qf in
  for i = 1 to 4 do
    Alcotest.(check bool) "buffers while ring is filling" true
      (Nat.Spsc.Batch.add bf i)
  done;
  Alcotest.(check int) "all four words buffered locally" 4
    (Nat.Spsc.Batch.pending bf);
  Nat.Spsc.close qf;
  Alcotest.check_raises "flush of stranded words after close" Nat.Spsc.Closed
    (fun () -> Nat.Spsc.Batch.flush bf)

let test_pad_isolation () =
  let a = Nat.Pad.atomic 7 in
  Atomic.incr a;
  Alcotest.(check int) "padded atomic behaves like Atomic" 8 (Atomic.get a);
  let arr = Nat.Pad.atomic_array 3 1 in
  Atomic.set arr.(1) 9;
  Alcotest.(check (list int)) "padded array elements are independent"
    [ 1; 9; 1 ]
    (List.map Atomic.get (Array.to_list arr));
  let c = Nat.Pad.cell 5 in
  c.Nat.Pad.v <- 6;
  Alcotest.(check int) "padded cell is mutable" 6 c.Nat.Pad.v;
  Alcotest.(check bool) "pad spans at least a cache line" true
    (Nat.Pad.pad_words >= Nat.Pad.words_per_cache_line)

let test_nbar_rounds () =
  let parties = 4 in
  let bar = Nat.Nbar.create ~parties in
  let rounds = 1000 in
  let counters = Array.init parties (fun _ -> Atomic.make 0) in
  let lagging = Atomic.make 0 in
  let loop me () =
    for _ = 1 to rounds do
      (* Everyone must have finished the previous round before anyone
         starts the next one. *)
      Array.iteri
        (fun o c ->
          if o <> me && abs (Atomic.get c - Atomic.get counters.(me)) > 1 then
            Atomic.incr lagging)
        counters;
      Atomic.incr counters.(me);
      Nat.Nbar.wait bar
    done
  in
  let ds = Array.init (parties - 1) (fun i -> Domain.spawn (loop (i + 1))) in
  loop 0 ();
  Array.iter Domain.join ds;
  Alcotest.(check int) "no round skew beyond one" 0 (Atomic.get lagging);
  Alcotest.(check int) "round count" rounds (Nat.Nbar.waits bar)

let test_pool_reuse_and_errors () =
  Nat.Pool.with_pool ~workers:2 (fun pool ->
      let hits = Atomic.make 0 in
      let job () = Atomic.incr hits in
      Nat.Pool.run pool [| job; job; job |];
      Nat.Pool.run pool [| job; job |];
      Alcotest.(check int) "all jobs ran on a reused pool" 5 (Atomic.get hits);
      Alcotest.check_raises "worker exception propagates" (Failure "boom")
        (fun () -> Nat.Pool.run pool [| job; (fun () -> failwith "boom") |]);
      (* The pool survives a failed batch. *)
      Nat.Pool.run pool [| job |];
      Alcotest.(check int) "pool survives failure" 7 (Atomic.get hits))

let test_work_spin () =
  let w = Nat.Work.Spin 10.0 in
  let ns = Nat.Nrun.timed (fun () -> Nat.Work.burn w 10_000.0) in
  (* 10k cycles at 10ns each: at least 100us of real spinning (calibration
     jitter only ever makes it longer on a loaded machine). *)
  Alcotest.(check bool)
    (Printf.sprintf "calibrated spin takes real time (%.0fns)" ns)
    true
    (ns > 10_000.0)

(* ---------- cross-validation against the simulator ---------- *)

let sim_seq_env (wl : Wl.Workload.t) input =
  let env = wl.Wl.Workload.fresh_env input in
  let (_ : float) = Ir.Seq_interp.run (wl.Wl.Workload.program input) env in
  env

(* Direct memory comparison for one workload: the simulator's sequential
   interpreter vs the native engines' final state. *)
let test_native_memory_direct () =
  let wl = Wl.Registry.find "SYMM" in
  let input = Wl.Workload.Train in
  let seq = sim_seq_env wl input in
  let program = wl.Wl.Workload.program input in
  Nat.Pool.with_pool ~workers:3 (fun pool ->
      let env = wl.Wl.Workload.fresh_env input in
      (match Ir.Mtcg.generate program env with
      | Ir.Mtcg.Inapplicable r -> Alcotest.fail r
      | Ir.Mtcg.Plan plan ->
          let (_ : Nat.Nrun.t) = Nat.Ndomore.run ~pool ~plan program env in
          ());
      Alcotest.(check (list (pair string int)))
        "native DOMORE memory = sim sequential memory" []
        (Ir.Memory.diff seq.Ir.Env.mem env.Ir.Env.mem))

let threads = 4

let sim_outcome technique wl =
  C.run_request @@ C.Request.make ~input:Wl.Workload.Train ~technique ~threads wl

let native_outcome ?pool technique wl =
  C.run_request @@ C.Request.make
    ~backend:(`Native { C.native_defaults with C.pool })
    ~input:Wl.Workload.Train ~technique ~threads wl

let nrun (n : C.outcome) = Option.get n.C.nrun

let check_verified name (n : C.outcome) =
  Alcotest.(check (list (pair string int)))
    (name ^ ": native memory = sequential memory")
    [] n.C.mismatches

let test_crossval_barrier () =
  Nat.Pool.with_pool ~workers:(threads - 1) (fun pool ->
      List.iter
        (fun (wl : Wl.Workload.t) ->
          let n = native_outcome ~pool C.Barrier wl in
          check_verified (wl.Wl.Workload.name ^ "/barrier") n;
          let s = sim_outcome C.Barrier wl in
          Alcotest.(check bool)
            (wl.Wl.Workload.name ^ "/barrier: sim verified")
            true s.C.verified)
        (Wl.Registry.all ()))

let test_crossval_domore () =
  Nat.Pool.with_pool ~workers:(threads - 1) (fun pool ->
      List.iter
        (fun (wl : Wl.Workload.t) ->
          match C.applicable C.Domore wl with
          | Error _ -> ()
          | Ok () ->
              let name = wl.Wl.Workload.name in
              let n = native_outcome ~pool C.Domore wl in
              check_verified (name ^ "/domore") n;
              let s = sim_outcome C.Domore wl in
              let sr = Option.get s.C.run in
              Alcotest.(check int)
                (name ^ "/domore: task counts match")
                sr.Par.Run.tasks (nrun n).Nat.Nrun.tasks;
              (* Same deterministic scheduling decisions => the very same
                 sync conditions stream to the workers. *)
              Alcotest.(check int)
                (name ^ "/domore: sync-condition counts match")
                sr.Par.Run.checks (nrun n).Nat.Nrun.conds;
              let d = native_outcome ~pool C.Domore_dup wl in
              check_verified (name ^ "/domore-dup") d;
              Alcotest.(check int)
                (name ^ "/domore-dup: task counts match")
                sr.Par.Run.tasks (nrun d).Nat.Nrun.tasks)
        (Wl.Registry.all ()))

let test_crossval_speccross () =
  Nat.Pool.with_pool ~workers:(threads - 1) (fun pool ->
      List.iter
        (fun (wl : Wl.Workload.t) ->
          match C.applicable C.Speccross wl with
          | Error _ -> ()
          | Ok () ->
              let name = wl.Wl.Workload.name in
              let n = native_outcome ~pool C.Speccross wl in
              check_verified (name ^ "/speccross") n;
              let s = sim_outcome C.Speccross wl in
              Alcotest.(check bool)
                (name ^ "/speccross: sim verified")
                true s.C.verified;
              let sr = Option.get s.C.run in
              (* A dependence inside the profiled speculative range (FDTD's
                 WAR pairs at distance spec_distance - 1) misspeculates in
                 both engines; when the simulator saw none, the throttle
                 provably orders every profiled dependence and the native
                 run must be race-free too.  First-attempt task counts only
                 coincide when neither side recovered. *)
              if sr.Par.Run.misspecs = 0 then begin
                Alcotest.(check int)
                  (name ^ "/speccross: native misspeculations")
                  0 (nrun n).Nat.Nrun.misspecs;
                Alcotest.(check int)
                  (name ^ "/speccross: task counts match")
                  sr.Par.Run.tasks (nrun n).Nat.Nrun.tasks
              end)
        (Wl.Registry.all ()))

let test_native_inject_recovers () =
  let wl = Wl.Registry.find "SYMM" in
  let n =
    C.run_request @@ C.Request.make ~backend:(`Native C.native_defaults) ~input:Wl.Workload.Train
      ~technique:(C.Speccross_inject 2) ~threads wl
  in
  Alcotest.(check int) "exactly one forced misspeculation" 1
    (nrun n).Nat.Nrun.misspecs;
  check_verified "SYMM/inject" n

let test_native_bloom_speccross () =
  (* Exercise the Bloom signature kind natively (Segmented is the default):
     termination and correctness, not zero false positives. *)
  let wl = Wl.Registry.find "SYMM" in
  let input = Wl.Workload.Train in
  let seq = sim_seq_env wl input in
  let program = wl.Wl.Workload.program input in
  Nat.Pool.with_pool ~workers:3 (fun pool ->
      let env = wl.Wl.Workload.fresh_env input in
      let config =
        {
          (Nat.Nspec.default_config ~workers:3) with
          Nat.Nspec.sig_kind = Xinv_runtime.Signature.Bloom { bits = 4096; hashes = 3 };
          mode_of = C.spec_mode_of_plan wl;
          spec_distance = 64;
        }
      in
      let (_ : Nat.Nrun.t) = Nat.Nspec.run ~pool ~config program env in
      Alcotest.(check (list (pair string int)))
        "bloom-checked native SPECCROSS memory" []
        (Ir.Memory.diff seq.Ir.Env.mem env.Ir.Env.mem))

let test_grain_memory_identical () =
  (* Chunked dispatch is a scheduling change, not a semantics change: every
     engine at a grain that divides nothing evenly (7) and a small batch (5)
     must still produce sequential memory on every applicable workload. *)
  let opts = { C.native_defaults with C.grain = 7; batch = 5 } in
  List.iter
    (fun (tech, tname) ->
      List.iter
        (fun (wl : Wl.Workload.t) ->
          match C.applicable ~backend:`Native tech wl with
          | Error _ -> ()
          | Ok () ->
              let n =
                C.run_request @@ C.Request.make ~backend:(`Native opts) ~input:Wl.Workload.Train
                  ~technique:tech ~threads wl
              in
              check_verified
                (wl.Wl.Workload.name ^ "/" ^ tname ^ "/grain7.batch5")
                n)
        (Wl.Registry.all ()))
    [
      (C.Barrier, "barrier");
      (C.Domore, "domore");
      (C.Domore_dup, "domore-dup");
      (C.Speccross, "speccross");
    ]

let test_stall_report_structure () =
  (* Every engine reports its blocked time under the shared cause
     vocabulary, so bench rows and the Obs stall report can name the
     bottleneck without string guessing. *)
  let known = List.map Nat.Stallcat.name Nat.Stallcat.all in
  let wl = Wl.Registry.find "SYMM" in
  List.iter
    (fun tech ->
      let n =
        C.run_request @@ C.Request.make ~backend:(`Native C.native_defaults) ~input:Wl.Workload.Train
          ~technique:tech ~threads wl
      in
      check_verified ("SYMM/" ^ C.technique_name tech) n;
      List.iter
        (fun (cause, ns) ->
          Alcotest.(check bool)
            (C.technique_name tech ^ ": known stall cause " ^ cause)
            true (List.mem cause known);
          Alcotest.(check bool)
            (C.technique_name tech ^ ": positive blocked time for " ^ cause)
            true (ns > 0.))
        (nrun n).Nat.Nrun.stalls)
    [ C.Sequential; C.Barrier; C.Domore; C.Speccross ]

let test_native_obs_counters () =
  let wl = Wl.Registry.find "SYMM" in
  let obs = Xinv_obs.Recorder.create () in
  let n =
    C.run_request @@ C.Request.make
      ~backend:(`Native { C.native_defaults with C.flight = true })
      ~input:Wl.Workload.Train ~obs ~technique:C.Domore ~threads wl
  in
  check_verified "SYMM/domore with flight" n;
  let counters = Xinv_obs.Metrics.counters (Xinv_obs.Recorder.metrics obs) in
  Alcotest.(check (option int))
    "native run feeds domore.tasks_dispatched"
    (Some (nrun n).Nat.Nrun.tasks)
    (List.assoc_opt "domore.tasks_dispatched" counters);
  match n.C.flight with
  | Some fl when Xinv_obs.Flight.total_length fl > 0 ->
      let v = Xinv_obs.Report.of_flight fl in
      Alcotest.(check bool) "flight yields a bottleneck verdict" true
        (v.Xinv_obs.Report.bottleneck <> "")
  | _ -> Alcotest.fail "recorded run surfaced no flight events"

(* ---------- the sequential baseline runs only when consumed ---------- *)

let symm_request ?policy ~backend ~verify technique =
  C.Request.make ~backend ~input:Wl.Workload.Train ~verify ?policy ~technique
    ~threads:2 (Wl.Registry.find "SYMM")

let backends = [ ("sim", `Sim None); ("native", `Native C.native_defaults) ]

let test_unverified_runs_once () =
  (* Nothing consumes a baseline: the request executes its technique and
     nothing else, so there is no sequential cost to report. *)
  List.iter
    (fun (name, backend) ->
      let o = C.run_request (symm_request ~backend ~verify:false C.Barrier) in
      Alcotest.(check bool) (name ^ ": no baseline") true (o.C.seq_cost = None);
      Alcotest.(check bool) (name ^ ": no speedup") true (o.C.speedup = None);
      Alcotest.(check bool) (name ^ ": unchecked counts as verified") true
        o.C.verified)
    backends

let test_sequential_is_its_own_baseline () =
  (* A Sequential run is the baseline: one execution whose cost is both
     figures, not two separately timed runs. *)
  List.iter
    (fun (name, backend) ->
      let o = C.run_request (symm_request ~backend ~verify:true C.Sequential) in
      Alcotest.(check bool) (name ^ ": seq cost is the run's cost") true
        (o.C.seq_cost = Some o.C.cost);
      Alcotest.(check (option (float 0.))) (name ^ ": speedup") (Some 1.0)
        o.C.speedup;
      Alcotest.(check bool) (name ^ ": verified") true o.C.verified)
    backends

let test_adaptive_measures_baseline_unverified () =
  (* The adaptive controller consumes the baseline, so it runs with verify
     off too, on every probe. *)
  let backend = `Native C.native_defaults in
  let ctl = C.adaptive ~probe_runs:3 ~margin:1e9 () in
  for i = 1 to 3 do
    let o =
      C.run_request
        (symm_request ~policy:(`Adaptive ctl) ~backend ~verify:false C.Barrier)
    in
    match o.C.seq_cost with
    | Some c when C.cost_value c > 0. -> ()
    | _ -> Alcotest.failf "probe %d measured no baseline" i
  done;
  let ctl = C.adaptive ~probe_runs:1 ~margin:0. () in
  let (_ : C.outcome) =
    C.run_request
      (symm_request ~policy:(`Adaptive ctl) ~backend ~verify:false C.Barrier)
  in
  Alcotest.(check bool) "one losing probe switches to sequential" true
    (C.adaptive_phase ctl = `Sequential)

let suite =
  [
    Alcotest.test_case "spsc: FIFO across two domains" `Quick test_spsc_two_domains;
    Alcotest.test_case "spsc: exact capacities incl. boundaries" `Quick
      test_spsc_exact_capacity;
    Alcotest.test_case "spsc: batched stream = unbatched stream" `Quick
      test_spsc_batch_equivalence;
    Alcotest.test_case "spsc: early close drains then raises" `Quick
      test_spsc_batch_close_drain;
    Alcotest.test_case "pad: cache-line isolation helpers" `Quick
      test_pad_isolation;
    Alcotest.test_case "nbar: sense-reversing rounds" `Quick test_nbar_rounds;
    Alcotest.test_case "pool: reuse and error propagation" `Quick
      test_pool_reuse_and_errors;
    Alcotest.test_case "work: calibrated spin" `Quick test_work_spin;
    Alcotest.test_case "memory: native DOMORE vs sim sequential" `Quick
      test_native_memory_direct;
    Alcotest.test_case "cross-validate barrier (all workloads)" `Quick
      test_crossval_barrier;
    Alcotest.test_case "cross-validate DOMORE (all workloads)" `Quick
      test_crossval_domore;
    Alcotest.test_case "cross-validate SPECCROSS (all workloads)" `Quick
      test_crossval_speccross;
    Alcotest.test_case "speccross: injected misspeculation recovers" `Quick
      test_native_inject_recovers;
    Alcotest.test_case "speccross: bloom signatures" `Quick
      test_native_bloom_speccross;
    Alcotest.test_case "grain > 1: memory identical on every engine" `Quick
      test_grain_memory_identical;
    Alcotest.test_case "stalls: causes use the shared vocabulary" `Quick
      test_stall_report_structure;
    Alcotest.test_case "obs: native runs feed metrics" `Quick
      test_native_obs_counters;
    Alcotest.test_case "baseline: unverified request runs once" `Quick
      test_unverified_runs_once;
    Alcotest.test_case "baseline: sequential is its own" `Quick
      test_sequential_is_its_own_baseline;
    Alcotest.test_case "baseline: adaptive measures it unverified" `Quick
      test_adaptive_measures_baseline_unverified;
  ]
