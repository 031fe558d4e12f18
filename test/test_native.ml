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

(* A flushed batch holds no reference to what it published: once the
   consumer pops a boxed payload and drops it, the payload is collectable. *)
let test_spsc_batch_releases_flushed () =
  let q = Nat.Spsc.create ~dummy:(ref (-1)) ~capacity:8 in
  let b = Nat.Spsc.Batch.create ~size:4 q in
  let w = Weak.create 1 in
  let publish () =
    let x = ref 42 in
    Weak.set w 0 (Some x);
    Nat.Spsc.Batch.push b x;
    Nat.Spsc.Batch.flush b
  in
  publish ();
  Alcotest.(check (option int)) "consumer sees the payload" (Some 42)
    (Option.map ( ! ) (Nat.Spsc.try_pop q));
  Gc.full_major ();
  Alcotest.(check bool) "flushed payload collected" false (Weak.check w 0);
  Alcotest.(check int) "nothing pending" 0 (Nat.Spsc.Batch.pending b)

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
                sr.Par.Run.tasks (nrun d).Nat.Nrun.tasks;
              (* Every duplicated scheduler derives the same conditions, so
                 the ones their owners await match too. *)
              let sd = Option.get (sim_outcome C.Domore_dup wl).C.run in
              Alcotest.(check int)
                (name ^ "/domore-dup: awaited-condition counts match")
                sd.Par.Run.checks (nrun d).Nat.Nrun.conds;
              if name = "ECLAT" then
                Alcotest.(check bool)
                  "ECLAT/domore-dup: conditions awaited" true
                  ((nrun d).Nat.Nrun.conds > 0))
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
              (* Both engines report the region's iteration count, however
                 often either recovered. *)
              Alcotest.(check int)
                (name ^ "/speccross: task counts match")
                sr.Par.Run.tasks (nrun n).Nat.Nrun.tasks;
              (* A dependence inside the profiled speculative range (FDTD's
                 WAR pairs at distance spec_distance - 1) misspeculates in
                 both engines; when the simulator saw none, the throttle
                 provably orders every profiled dependence and the native
                 run must be race-free too. *)
              if sr.Par.Run.misspecs = 0 then
                Alcotest.(check int)
                  (name ^ "/speccross: native misspeculations")
                  0 (nrun n).Nat.Nrun.misspecs)
        (Wl.Registry.all ()))

(* Workers that wait on almost every task: the speculative range is the
   worker count and a checkpoint rally drains the checker every two epochs.
   Every drain depends on requests a worker may still hold in its write
   buffer; a worker that flushed neither before its waits nor at its epoch
   boundaries stalls the first rally, and the watchdog's per-wait bound
   turns that into [Stalled]. *)
let test_native_speccross_flush_before_wait () =
  let workers = 3 in
  List.iter
    (fun (name, inject) ->
      let wl = Wl.Registry.find name in
      let input = Wl.Workload.Train in
      let program = wl.Wl.Workload.program input in
      let seq = sim_seq_env wl input in
      let sig_kind env =
        Xinv_runtime.Signature.Segmented (Ir.Memory.bounds env.Ir.Env.mem)
      in
      let mode_of = C.spec_mode_of_plan wl in
      let tag = Printf.sprintf "%s%s" name (if inject = None then "" else ", injected") in
      let sim =
        let env = wl.Wl.Workload.fresh_env input in
        Xinv_speccross.Runtime.run
          ~config:
            { (Xinv_speccross.Runtime.default_config ~workers) with
              Xinv_speccross.Runtime.sig_kind = sig_kind env; spec_distance = workers;
              checkpoint_every = 2; mode_of; inject_misspec = inject }
          program env
      in
      let env = wl.Wl.Workload.fresh_env input in
      let config =
        { (Nat.Nspec.default_config ~workers) with
          Nat.Nspec.sig_kind = sig_kind env; spec_distance = workers; checkpoint_every = 2;
          mode_of; inject_misspec = inject }
      in
      let wd = Nat.Watchdog.create ~wait_timeout_ms:10_000. () in
      let r =
        try
          Nat.Pool.with_pool ~workers (fun pool -> Nat.Nspec.run ~pool ~wd ~config program env)
        with Nat.Watchdog.Stalled { role; waiting_for; _ } ->
          Alcotest.failf "%s: %s stalled waiting for %s" tag role waiting_for
      in
      Alcotest.(check (list (pair string int)))
        (tag ^ ": sequential memory") []
        (Ir.Memory.diff seq.Ir.Env.mem env.Ir.Env.mem);
      Alcotest.(check int) (tag ^ ": misspeculations as simulated")
        sim.Par.Run.misspecs r.Nat.Nrun.misspecs)
    [ ("JACOBI", None); ("SYMM", None); ("JACOBI", Some (3, 1)) ]

(* Both backends count each epoch of the region once, however many of
   them recovery redid. *)
let test_speccross_epochs_committed_agree () =
  let wl = Wl.Registry.find "JACOBI" in
  let committed backend =
    let obs = Xinv_obs.Recorder.create () in
    let o =
      C.run_request @@ C.Request.make ~backend ~input:Wl.Workload.Train ~obs
        ~technique:(C.Speccross_inject 3) ~threads:3 wl
    in
    let r = Option.get (C.report ~obs o) in
    let counter k = List.assoc k r.Xinv_obs.Report.counters in
    Alcotest.(check int) "one misspeculation" 1 (counter "speccross.misspeculations");
    counter "speccross.epochs_committed"
  in
  let epochs = Ir.Program.invocations (wl.Wl.Workload.program Wl.Workload.Train) in
  Alcotest.(check int) "sim: every epoch once" epochs (committed (`Sim None));
  Alcotest.(check int) "native: every epoch once" epochs
    (committed (`Native { C.native_defaults with C.flight = true }))

(* Figure 5.6's mode map runs FLUIDANIMATE's LOCALWRITE loops as DOMORE
   epochs: natively, each worker schedules every iteration of such an
   epoch and waits on its peers' [Done] frontiers, with and without a
   forced misspeculation. *)
let test_native_speccross_domore_epochs () =
  let wl = Wl.Registry.find "FLUIDANIMATE-2" in
  let input = Wl.Workload.Train in
  let seq = sim_seq_env wl input in
  let program = wl.Wl.Workload.program input in
  let mode_of label =
    match Wl.Workload.technique_of wl label with
    | Par.Intra.Localwrite -> Xinv_speccross.Protocol.M_domore Xinv_domore.Policy.Mem_partition
    | _ -> Xinv_speccross.Protocol.M_doall
  in
  List.iter
    (fun (workers, inject) ->
      Nat.Pool.with_pool ~workers (fun pool ->
          let env = wl.Wl.Workload.fresh_env input in
          let config =
            { (Nat.Nspec.default_config ~workers) with
              Nat.Nspec.mode_of; inject_misspec = inject; spec_distance = 64 }
          in
          let r = Nat.Nspec.run ~pool ~config program env in
          let tag =
            Printf.sprintf "%d workers%s" workers
              (if inject = None then "" else ", injected")
          in
          Alcotest.(check (list (pair string int)))
            (tag ^ ": sequential memory") []
            (Ir.Memory.diff seq.Ir.Env.mem env.Ir.Env.mem);
          if inject <> None then
            Alcotest.(check bool) (tag ^ ": misspeculated") true (r.Nat.Nrun.misspecs >= 1)))
    [ (2, None); (3, None); (3, Some (3, 1)) ]

(* DOMORE epochs whose owners depend on an index array the previous epoch
   rewrites ({!Test_speccross.routed}): workers that schedule from a stale
   index can disagree on an owner, and whatever the interleaving the run
   must end in the sequential state. *)
let test_native_speccross_stale_schedules () =
  let program, fresh, mode_of = Test_speccross.routed () in
  let seq = fresh () in
  let (_ : float) = Ir.Seq_interp.run program seq in
  List.iter
    (fun workers ->
      Nat.Pool.with_pool ~workers (fun pool ->
          for run = 1 to 10 do
            let env = fresh () in
            let config =
              { (Nat.Nspec.default_config ~workers) with
                Nat.Nspec.mode_of; work = Nat.Work.Spin 10.0; spec_distance = 1 lsl 20;
                checkpoint_every = 4 }
            in
            let (_ : Nat.Nrun.t) = Nat.Nspec.run ~pool ~config program env in
            Alcotest.(check (list (pair string int)))
              (Printf.sprintf "%d workers, run %d: sequential memory" workers run)
              [] (Ir.Memory.diff seq.Ir.Env.mem env.Ir.Env.mem)
          done))
    [ 2; 3; 4 ]

let test_native_inject_recovers () =
  let wl = Wl.Registry.find "SYMM" in
  let n =
    C.run_request @@ C.Request.make ~backend:(`Native C.native_defaults) ~input:Wl.Workload.Train
      ~technique:(C.Speccross_inject 2) ~threads wl
  in
  Alcotest.(check int) "exactly one forced misspeculation" 1
    (nrun n).Nat.Nrun.misspecs;
  check_verified "SYMM/inject" n

(* Recovery re-executes the misspeculated epochs through the barrier
   engine's per-invocation share; for LOCALWRITE epochs that is the
   owner-compute path, with traversal statements applied by the
   iteration's lowest owner. *)
let test_native_inject_recovers_localwrite () =
  List.iter
    (fun (name, input) ->
      let n =
        C.run_request @@ C.Request.make ~backend:(`Native C.native_defaults) ~input
          ~technique:(C.Speccross_inject 3) ~threads:3 (Wl.Registry.find name)
      in
      Alcotest.(check int) (name ^ ": exactly one forced misspeculation") 1
        (nrun n).Nat.Nrun.misspecs;
      check_verified (name ^ "/inject") n)
    [ ("CG", Wl.Workload.Ref_spec); ("FLUIDANIMATE-2", Wl.Workload.Train) ]

(* The report of a native SPECCROSS run with a flight recorder counts what
   the checker, the checkpoints and recovery did, as the simulator's does. *)
let test_native_speccross_report () =
  let n =
    C.run_request @@ C.Request.make
      ~backend:(`Native { C.native_defaults with C.flight = true })
      ~input:Wl.Workload.Train ~technique:(C.Speccross_inject 3) ~threads:3
      (Wl.Registry.find "JACOBI")
  in
  check_verified "JACOBI/inject" n;
  let r = Option.get (C.report n) in
  let counter k = List.assoc k r.Xinv_obs.Report.counters in
  Alcotest.(check int) "one misspeculation" 1 (counter "speccross.misspeculations");
  Alcotest.(check bool) "initial and recovery checkpoints" true
    (counter "speccross.checkpoints" >= 2);
  Alcotest.(check bool) "an epoch redone" true (counter "speccross.epochs_redone" >= 1);
  Alcotest.(check bool) "signatures compared" true (counter "speccross.signatures_compared" > 0)

(* Real cross-epoch conflicts, not forced ones: few cells and an unbounded
   speculative range make workers overlap on shared cells, which the checker
   must catch and recovery must repair. *)
let test_native_speccross_detects_conflicts () =
  let program, fresh =
    Wl.Synth.make
      { Wl.Synth.default with Wl.Synth.seed = 5; cells = 8; outer = 8; trip = 6; inners = 2 }
  in
  let seq = fresh () in
  let (_ : float) = Ir.Seq_interp.run program seq in
  List.iter
    (fun workers ->
      Nat.Pool.with_pool ~workers (fun pool ->
          for run = 1 to 10 do
            let env = fresh () in
            let config =
              { (Nat.Nspec.default_config ~workers) with
                Nat.Nspec.spec_distance = 1 lsl 20; checkpoint_every = 4 }
            in
            let r = Nat.Nspec.run ~pool ~config program env in
            let tag = Printf.sprintf "%d workers, run %d" workers run in
            Alcotest.(check (list (pair string int)))
              (tag ^ ": sequential memory") []
              (Ir.Memory.diff seq.Ir.Env.mem env.Ir.Env.mem);
            Alcotest.(check bool) (tag ^ ": misspeculated") true (r.Nat.Nrun.misspecs >= 1)
          done))
    [ 2; 3; 4 ]

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

let symm_request ~backend ~verify technique =
  C.Request.make ~backend ~input:Wl.Workload.Train ~verify ~technique
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

let test_verified_measures_baseline () =
  (* Verify is what consumes the baseline: a checked Barrier run also
     executes sequentially, and its speedup is the ratio of the two. *)
  List.iter
    (fun (name, backend) ->
      let o = C.run_request (symm_request ~backend ~verify:true C.Barrier) in
      (match o.C.seq_cost with
      | Some c when C.cost_value c > 0. -> ()
      | _ -> Alcotest.failf "%s: verified run measured no baseline" name);
      Alcotest.(check bool) (name ^ ": speedup reported") true
        (o.C.speedup <> None);
      Alcotest.(check bool) (name ^ ": verified") true o.C.verified)
    backends

(* ---------- the process-wide sequential reference ---------- *)

let test_second_request_reuses_reference () =
  (* The first verified request on a key fills the reference (or finds
     it filled); the second runs no baseline and still reports one. *)
  List.iter
    (fun (name, backend) ->
      let req = symm_request ~backend ~verify:true C.Barrier in
      ignore (C.run_request req);
      let o = C.run_request req in
      Alcotest.(check bool) (name ^ ": baseline reused") true o.C.baseline_reused;
      (match o.C.seq_cost with
      | Some c when C.cost_value c > 0. -> ()
      | _ -> Alcotest.failf "%s: reused baseline has no cost" name);
      Alcotest.(check bool) (name ^ ": verified") true o.C.verified;
      if name = "sim" then begin
        (* cycles are deterministic: the stored cost is a fresh one *)
        let wl = req.C.Request.workload in
        let env = wl.Wl.Workload.fresh_env Wl.Workload.Train in
        let fresh = Ir.Seq_interp.run (wl.Wl.Workload.program Wl.Workload.Train) env in
        Alcotest.(check (float 0.)) "sim: stored cost = fresh cost" fresh
          (C.cost_value (Option.get o.C.seq_cost))
      end)
    backends

let test_corrupted_result_fails_warm () =
  (* A wrong memory fails against the stored reference exactly as it
     fails against a freshly measured baseline. *)
  let wl = Wl.Registry.find "SYMM" and input = Wl.Workload.Train in
  let program = wl.Wl.Workload.program input in
  List.iter
    (fun (name, backend) ->
      let req = symm_request ~backend ~verify:true C.Barrier in
      ignore (C.run_request req);
      let env = wl.Wl.Workload.fresh_env input in
      ignore
        (Par.Barrier_exec.run ~threads:2 ~plan:(Wl.Workload.plan_fn wl) program env);
      let mem = env.Ir.Env.mem in
      List.iter
        (fun i -> Ir.Memory.set_float mem "Cm" i (Ir.Memory.get_float mem "Cm" i +. 1.))
        [ 7; 4321 ];
      let warm, reused = C.reference_diff req mem in
      Alcotest.(check bool) (name ^ ": reference reused") true reused;
      let seq_env = wl.Wl.Workload.fresh_env input in
      ignore (Ir.Seq_interp.run program seq_env);
      let fresh = Ir.Memory.diff seq_env.Ir.Env.mem mem in
      Alcotest.(check (list (pair string int)))
        (name ^ ": mismatches = a fresh baseline's") fresh warm;
      Alcotest.(check (list (pair string int)))
        (name ^ ": the corrupted words") [ ("Cm", 7); ("Cm", 4321) ] warm;
      (* the check read the reference and wrote nothing to it *)
      let o = C.run_request req in
      Alcotest.(check bool) (name ^ ": next request verifies") true
        (o.C.baseline_reused && o.C.verified))
    backends

let test_synth_never_memoized () =
  (* Only records the registry returns are kept: a generated workload, and
     a copy of a registry record under the same name, run their baseline
     every time, even after a sequential execution of the same input. *)
  let spec = { Wl.Synth.default with Wl.Synth.within_safe = true } in
  let p, fresh = Wl.Synth.make spec in
  let synth =
    {
      Wl.Workload.name = "SYNTH";
      suite = "test";
      func = "synth";
      exec_pct = 100.;
      program = (fun _ -> p);
      fresh_env = (fun _ -> fresh ());
      plan =
        List.map
          (fun (il : Ir.Program.inner) -> (il.Ir.Program.ilabel, Par.Intra.Doall))
          p.Ir.Program.inners;
      mem_partition = false;
      domore_expected = false;
      speccross_expected = false;
    }
  in
  let copy = { (Wl.Registry.find "SYMM") with Wl.Workload.suite = "copy" } in
  List.iter
    (fun (wl : Wl.Workload.t) ->
      List.iter
        (fun (name, backend) ->
          let req technique =
            C.Request.make ~backend ~input:Wl.Workload.Train ~technique ~threads:2 wl
          in
          ignore (C.run_request (req C.Sequential));
          for _ = 1 to 2 do
            let o = C.run_request (req C.Barrier) in
            Alcotest.(check bool)
              (Printf.sprintf "%s %s: baseline ran" wl.Wl.Workload.suite name)
              false o.C.baseline_reused;
            Alcotest.(check bool)
              (Printf.sprintf "%s %s: verified" wl.Wl.Workload.suite name)
              true o.C.verified
          done)
        backends)
    [ synth; copy ]

let test_concurrent_verifiers () =
  (* Two domains verify the same key at once; whichever fills the entry,
     both verify against the true sequential memory. *)
  let backend = `Native { C.native_defaults with C.work = Nat.Work.Spin 0.001 } in
  let req =
    C.Request.make ~backend ~input:Wl.Workload.Train_spec ~technique:C.Barrier
      ~threads:2 (Wl.Registry.find "LLUBENCH")
  in
  let outcomes =
    List.map Domain.join
      (List.init 2 (fun _ -> Domain.spawn (fun () -> C.run_request req)))
  in
  List.iteri
    (fun i (o : C.outcome) ->
      Alcotest.(check bool) (Printf.sprintf "domain %d: verified" i) true o.C.verified;
      Alcotest.(check bool) (Printf.sprintf "domain %d: baseline reported" i) true
        (o.C.seq_cost <> None))
    outcomes;
  Alcotest.(check bool) "a third request reuses the entry" true
    (C.run_request req).C.baseline_reused

(* ---------- parking ---------- *)

let fd_count () = Array.length (Sys.readdir "/proc/self/fd")

let test_parkers_leak_no_fd () =
  if Sys.file_exists "/proc/self/fd" then
    Nat.Pool.with_pool ~workers:2 (fun pool ->
        let backend = `Native { C.native_defaults with C.pool = Some pool } in
        let request technique =
          ignore
            (C.run_request
               (C.Request.make ~backend ~input:Wl.Workload.Train ~verify:false
                  ~technique ~threads:2 (Wl.Registry.find "CG"))
              : C.outcome)
        in
        request C.Domore;
        (* Parkers are recycled, so their number is bounded by the most
           waiters ever parked at once: every pool domain idle and the
           calling thread waiting.  Reach that bound before counting. *)
        Unix.sleepf 0.01;
        (try
           Nat.Watchdog.wait
             ~wd:(Nat.Watchdog.create ~wait_timeout_ms:20. ())
             ~role:"main" ~for_:"nothing" ~on:[] (fun () -> false)
         with Nat.Watchdog.Stalled _ -> ());
        let before = fd_count () in
        let techniques = [| C.Barrier; C.Domore; C.Speccross |] in
        for i = 1 to 500 do
          request techniques.(i mod 3)
        done;
        Alcotest.(check int) "open fds after 500 native requests" before
          (fd_count ()))

let test_idle_pool_parks () =
  Nat.Pool.with_pool ~workers:1 (fun pool ->
      Nat.Pool.run pool [| ignore; ignore |];
      let cpu () =
        let t = Unix.times () in
        t.Unix.tms_utime +. t.Unix.tms_stime
      in
      let c0 = cpu () and t0 = Unix.gettimeofday () in
      Unix.sleepf 0.3;
      let used = cpu () -. c0 and wall = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool)
        (Printf.sprintf "idle 1-worker pool used %.1f%% of a core"
           (100. *. used /. wall))
        true
        (used < 0.1 *. wall))

(* Recovery re-executes the epochs up to the flagged one through the
   protocol's own non-speculative epochs, so for one injected conflict both
   backends redo the same epochs, take the same checkpoints and cross the
   same barriers, as their engines count them.  Each backend runs the
   engine configuration a request resolves to. *)
let test_speccross_recovery_parity () =
  List.iter
    (fun (name, threads) ->
      let tag k = Printf.sprintf "%s at %d threads: %s" name threads k in
      let wl = Wl.Registry.find name and input = Wl.Workload.Train in
      let req =
        C.Request.make ~input ~technique:(C.Speccross_inject 3) ~threads wl
      in
      let program = wl.Wl.Workload.program input and seq = sim_seq_env wl input in
      let sim_env = wl.Wl.Workload.fresh_env input in
      let config =
        match C.resolve req sim_env with
        | C.Engine.Speccross { config; profitable = true; _ } -> config
        | _ -> Alcotest.fail (tag "no speculative engine")
      in
      let module R = Xinv_speccross.Runtime in
      let sim = R.run ~config program sim_env in
      let workers = config.R.workers in
      let env = wl.Wl.Workload.fresh_env input in
      let nat =
        Nat.Pool.with_pool ~workers (fun pool ->
            Nat.Nspec.run ~pool
              ~config:
                { (Nat.Nspec.default_config ~workers) with
                  Nat.Nspec.sig_kind = config.R.sig_kind;
                  checkpoint_every = config.R.checkpoint_every;
                  spec_distance = config.R.spec_distance; mode_of = config.R.mode_of;
                  inject_misspec = config.R.inject_misspec }
              program env)
      in
      List.iter
        (fun (backend, mem) ->
          Alcotest.(check (list (pair string int)))
            (tag (backend ^ " memory = sequential memory")) []
            (Ir.Memory.diff seq.Ir.Env.mem mem))
        [ ("sim", sim_env.Ir.Env.mem); ("native", env.Ir.Env.mem) ];
      Alcotest.(check (pair int int)) (tag "one misspeculation each") (1, 1)
        (sim.Par.Run.misspecs, nat.Nat.Nrun.misspecs);
      Alcotest.(check bool) (tag "an epoch redone") true (sim.Par.Run.epochs_redone > 0);
      Alcotest.(check int) (tag "epochs redone as simulated") sim.Par.Run.epochs_redone
        nat.Nat.Nrun.epochs_redone;
      Alcotest.(check int) (tag "checkpoints as simulated") sim.Par.Run.checkpoints
        nat.Nat.Nrun.checkpoints;
      Alcotest.(check int) (tag "barrier episodes as simulated") sim.Par.Run.barrier_episodes
        nat.Nat.Nrun.barrier_episodes)
    [ ("JACOBI", 2); ("JACOBI", 3); ("SYMM", 2); ("SYMM", 3) ]

(* A deterministic bug is no misspeculation: the speculative epoch it
   raises in becomes one forced conflict, and the recovery that re-executes
   the epoch lets the exception escape rather than recover again. *)
let test_native_speccross_bug_escapes () =
  let program, fresh =
    Wl.Synth.make
      { Wl.Synth.default with Wl.Synth.seed = 7; cells = 4096; outer = 6; trip = 4; inners = 1 }
  in
  let raised = Atomic.make 0 in
  let boom =
    Ir.Stmt.make "boom" ~exec:(fun env ->
        if env.Ir.Env.t_outer = 3 && env.Ir.Env.j_inner = 0 then begin
          Atomic.incr raised;
          failwith "deterministic bug"
        end)
  in
  let program =
    { program with
      Ir.Program.inners =
        List.map
          (fun (il : Ir.Program.inner) ->
            { il with Ir.Program.body = il.Ir.Program.body @ [ boom ] })
          program.Ir.Program.inners }
  in
  let workers = 2 in
  let fr = Xinv_obs.Flight.create ~domains:(workers + 1) () in
  let wd = Nat.Watchdog.create ~deadline_ms:10_000. () in
  (match
     Nat.Pool.with_pool ~workers (fun pool ->
         Nat.Nspec.run ~pool ~wd ~fr ~config:(Nat.Nspec.default_config ~workers) program
           (fresh ()))
   with
  | _ -> Alcotest.fail "the bug was swallowed"
  | exception Failure msg -> Alcotest.(check string) "the bug escapes" "deterministic bug" msg
  | exception Nat.Watchdog.Stalled { role; waiting_for; _ } ->
      Alcotest.failf "looped: %s still waiting for %s at the deadline" role waiting_for);
  Alcotest.(check int) "raised speculatively, then once re-executed" 2 (Atomic.get raised);
  Alcotest.(check int) "one forced conflict" 1
    (List.length
       (List.filter
          (fun (e : Xinv_obs.Flight.entry) -> e.Xinv_obs.Flight.f_kind = Xinv_obs.Flight.Misspec)
          (Xinv_obs.Flight.entries fr)))

(* Native Barrier ends each invocation at one barrier, as the simulator
   does, so the same request reports the same counts on both backends. *)
let test_barrier_parity () =
  Nat.Pool.with_pool ~workers:2 (fun pool ->
      List.iter
        (fun (name, threads) ->
          let tag k = Printf.sprintf "%s at %d threads: %s" name threads k in
          let go backend =
            C.run_request
            @@ C.Request.make ~backend ~input:Wl.Workload.Train ~technique:C.Barrier ~threads
                 (Wl.Registry.find name)
          in
          let s = go (`Sim None) and n = go (`Native { C.native_defaults with C.pool = Some pool }) in
          Alcotest.(check bool) (tag "sim verified") true s.C.verified;
          check_verified (tag "native") n;
          let sr = Option.get s.C.run and nr = nrun n in
          Alcotest.(check (list int)) (tag "tasks, invocations, barrier episodes")
            [ sr.Par.Run.tasks; sr.Par.Run.invocations; sr.Par.Run.barrier_episodes ]
            [ nr.Nat.Nrun.tasks; nr.Nat.Nrun.invocations; nr.Nat.Nrun.barrier_episodes ])
        (List.concat_map
           (fun name -> [ (name, 2); (name, 3) ])
           [ "SYMM"; "JACOBI"; "CG"; "ECLAT"; "LLUBENCH" ]))

(* An invocation's sequential region writes a slot every iteration of its
   body reads: it must run once, after the previous invocation's bodies and
   before any of its own. *)
let scal_program () =
  let pre =
    Ir.Stmt.make
      ~reads:[ Ir.Access.make "out" (Ir.Expr.c 0) ]
      ~writes:[ Ir.Access.make "scal" (Ir.Expr.c 0) ]
      ~cost:(Ir.Stmt.fixed_cost 10.)
      ~exec:(fun env ->
        let mem = env.Ir.Env.mem in
        Ir.Memory.set_float mem "scal" 0
          (Ir.Memory.get_float mem "out" 0 +. float_of_int env.Ir.Env.t_outer))
      "scal=f(t)"
  in
  let body =
    Ir.Stmt.make
      ~reads:[ Ir.Access.make "scal" (Ir.Expr.c 0); Ir.Access.make "out" Ir.Expr.i ]
      ~writes:[ Ir.Access.make "out" Ir.Expr.i ]
      ~cost:(Ir.Stmt.fixed_cost 200.)
      ~exec:(fun env ->
        let mem = env.Ir.Env.mem and j = env.Ir.Env.j_inner in
        Ir.Memory.set_float mem "out" j
          (Ir.Memory.get_float mem "out" j +. Ir.Memory.get_float mem "scal" 0))
      "out[i]+=scal"
  in
  let p =
    Ir.Program.make ~name:"scal" ~outer_trip:40
      [ Ir.Program.inner ~pre:[ pre ] ~label:"L" ~trip:(Ir.Program.const_trip 16) [ body ] ]
  in
  let fresh () =
    Ir.Env.make
      (Ir.Memory.create
         [ Ir.Memory.Floats ("scal", [| 0. |]); Ir.Memory.Floats ("out", Array.make 16 1.) ])
  in
  (p, fresh)

let test_barrier_sequential_region () =
  let p, fresh = scal_program () in
  let seq = fresh () in
  let (_ : float) = Ir.Seq_interp.run p seq in
  Nat.Pool.with_pool ~workers:2 (fun pool ->
      List.iter
        (fun threads ->
          let env = fresh () in
          let r =
            Nat.Nbarrier.run ~pool ~threads ~plan:(fun _ -> Par.Intra.Doall) p env
          in
          Alcotest.(check (list (pair string int)))
            (Printf.sprintf "%d domains: memory = sequential memory" threads)
            [] (Ir.Memory.diff seq.Ir.Env.mem env.Ir.Env.mem);
          Alcotest.(check int) (Printf.sprintf "%d domains: one barrier per invocation" threads)
            40 r.Nat.Nrun.barrier_episodes)
        [ 2; 3 ])

(* [scal_program] as a workload, its one loop planned DOALL. *)
let scal_workload () =
  let p, fresh = scal_program () in
  {
    Wl.Workload.name = "SCAL";
    suite = "test";
    func = "scal";
    exec_pct = 100.;
    program = (fun _ -> p);
    fresh_env = (fun _ -> fresh ());
    plan = [ ("L", Par.Intra.Doall) ];
    mem_partition = false;
    domore_expected = false;
    speccross_expected = false;
  }

(* SPECCROSS runs a sequential region on every worker, outside any
   signature, so one that writes memory is refused by the applicability
   check and by both engines rather than run into a wrong result. *)
let test_speccross_sequential_region_rejected () =
  let p, fresh = scal_program () in
  let why = "sequential region statement scal=f(t) writes memory" in
  let refused = Invalid_argument ("SPECCROSS: " ^ why) in
  Alcotest.(check (result unit string)) "planner" (Error why)
    (C.applicable C.Speccross (scal_workload ()));
  Alcotest.check_raises "simulated" refused (fun () ->
      let config = Xinv_speccross.Runtime.default_config ~workers:3 in
      ignore (Xinv_speccross.Runtime.run ~config p (fresh ())));
  Alcotest.check_raises "native" refused (fun () ->
      Nat.Pool.with_pool ~workers:2 (fun pool ->
          let config = Nat.Nspec.default_config ~workers:2 in
          ignore (Nat.Nspec.run ~pool ~config p (fresh ()))))

(* A speculative range below the worker count: each worker's throttle
   waits on a position its peer cannot reach.  The engine raises the range
   to the worker count, so both backends finish in the sequential state. *)
let test_speccross_range_below_workers () =
  let p, fresh =
    Wl.Synth.make
      { Wl.Synth.default with
        Wl.Synth.seed = 32; outer = 2; trip = 5; inners = 2; cells = 34; within_safe = true }
  in
  let seq = fresh () in
  let (_ : float) = Ir.Seq_interp.run p seq in
  let sig_kind env = Xinv_runtime.Signature.Segmented (Ir.Memory.bounds env.Ir.Env.mem) in
  let workers = 2 in
  Nat.Pool.with_pool ~workers (fun pool ->
      List.iter
        (fun checkpoint_every ->
          let tag backend = Printf.sprintf "%s, checkpoint every %d" backend checkpoint_every in
          let env = fresh () in
          let (_ : Par.Run.t) =
            Xinv_speccross.Runtime.run
              ~config:
                { (Xinv_speccross.Runtime.default_config ~workers) with
                  Xinv_speccross.Runtime.sig_kind = sig_kind env; spec_distance = 1;
                  checkpoint_every }
              p env
          in
          Alcotest.(check (list (pair string int)))
            (tag "simulated") [] (Ir.Memory.diff seq.Ir.Env.mem env.Ir.Env.mem);
          let env = fresh () in
          let config =
            { (Nat.Nspec.default_config ~workers) with
              Nat.Nspec.sig_kind = sig_kind env; spec_distance = 1; checkpoint_every }
          in
          let wd = Nat.Watchdog.create ~wait_timeout_ms:10_000. () in
          (match Nat.Nspec.run ~pool ~wd ~config p env with
          | (_ : Nat.Nrun.t) -> ()
          | exception Nat.Watchdog.Stalled { role; waiting_for; _ } ->
              Alcotest.failf "%s: %s stalled waiting for %s" (tag "native") role waiting_for);
          Alcotest.(check (list (pair string int)))
            (tag "native") [] (Ir.Memory.diff seq.Ir.Env.mem env.Ir.Env.mem))
        [ 1; 2; 3 ])

let suite =
  [
    Alcotest.test_case "spsc: FIFO across two domains" `Quick test_spsc_two_domains;
    Alcotest.test_case "spsc: exact capacities incl. boundaries" `Quick
      test_spsc_exact_capacity;
    Alcotest.test_case "spsc: batched stream = unbatched stream" `Quick
      test_spsc_batch_equivalence;
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
    Alcotest.test_case "baseline: verified request measures it" `Quick
      test_verified_measures_baseline;
    Alcotest.test_case "park: an idle pool does not spin" `Quick
      test_idle_pool_parks;
    Alcotest.test_case "park: parkers leak no fd over 500 requests" `Quick
      test_parkers_leak_no_fd;
    Alcotest.test_case "speccross: recovery through LOCALWRITE epochs" `Quick
      test_native_inject_recovers_localwrite;
    Alcotest.test_case "speccross: report counts checks, checkpoints, recovery" `Quick
      test_native_speccross_report;
    Alcotest.test_case "speccross: real conflicts detected and repaired" `Quick
      test_native_speccross_detects_conflicts;
    Alcotest.test_case "speccross: epochs committed agree across backends" `Quick
      test_speccross_epochs_committed_agree;
    Alcotest.test_case "speccross: DOMORE epochs run natively" `Quick
      test_native_speccross_domore_epochs;
    Alcotest.test_case "speccross: stale DOMORE schedules repaired" `Quick
      test_native_speccross_stale_schedules;
    Alcotest.test_case "speccross: requests flushed before every wait" `Quick
      test_native_speccross_flush_before_wait;
    Alcotest.test_case "spsc: a flushed batch releases its payloads" `Quick
      test_spsc_batch_releases_flushed;
    Alcotest.test_case "speccross: recovery redoes as simulated" `Quick
      test_speccross_recovery_parity;
    Alcotest.test_case "speccross: a deterministic bug escapes recovery" `Quick
      test_native_speccross_bug_escapes;
    Alcotest.test_case "barrier: same counts as simulated" `Quick test_barrier_parity;
    Alcotest.test_case "barrier: sequential region before every share" `Quick
      test_barrier_sequential_region;
    Alcotest.test_case "speccross: sequential region that writes is refused" `Quick
      test_speccross_sequential_region_rejected;
    Alcotest.test_case "speccross: range below the worker count is raised" `Quick
      test_speccross_range_below_workers;
    Alcotest.test_case "reference: a second verified request reuses it" `Quick
      test_second_request_reuses_reference;
    Alcotest.test_case "reference: a corrupted result fails as against a fresh one" `Quick
      test_corrupted_result_fails_warm;
    Alcotest.test_case "reference: other workloads never enter the memo" `Quick
      test_synth_never_memoized;
    Alcotest.test_case "reference: two domains verify one key at once" `Quick
      test_concurrent_verifiers;
  ]
