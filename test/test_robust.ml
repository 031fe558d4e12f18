(* Robustness layer: fault injection, watchdogs, cohort cancellation and
   graceful degradation behind the unified Crossinv.run_request entry point.

   The fault matrix runs every native engine under every fault kind it can
   suffer and demands a clean unwind, a verified degraded result and
   reconciled counters — never a hang (every wait is watchdog-bounded). *)

module Ir = Xinv_ir
module Nat = Xinv_native
module Wl = Xinv_workloads
module C = Xinv_core.Crossinv

(* ---------- fault specs ---------- *)

let test_spec_parsing () =
  let exact kind domain site = Nat.Fault.Exact { kind; domain; site } in
  List.iter
    (fun (s, expect) ->
      match Nat.Fault.spec_of_string s with
      | Error m -> Alcotest.fail (s ^ ": " ^ m)
      | Ok sp ->
          Alcotest.(check bool) (s ^ ": parses to expected spec") true (sp = expect);
          (* round trip *)
          Alcotest.(check bool)
            (s ^ ": survives to_string/of_string")
            true
            (Nat.Fault.spec_of_string (Nat.Fault.spec_to_string sp) = Ok sp))
    [
      ("raise@2:5", exact Nat.Fault.Worker_raise 2 5);
      ("stall@*:3", exact Nat.Fault.Queue_stall (-1) 3);
      ("poison@0:1", exact Nat.Fault.Poison_cond 0 1);
      ("sched-die@4", exact Nat.Fault.Scheduler_die (-1) 4);
      ("checker-die@2", exact Nat.Fault.Checker_die (-1) 2);
      ("rand:42", Nat.Fault.Random 42);
    ];
  List.iter
    (fun s ->
      match Nat.Fault.spec_of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (s ^ ": should not parse"))
    [ "bogus"; "raise@"; "raise@x:y"; "rand:"; "raise@1:-2" ]

let test_random_resolve_deterministic () =
  let resolve () = Nat.Fault.resolve ~domains:4 ~sites:100 (Nat.Fault.Random 9) in
  Alcotest.(check bool)
    "same seed, same fault" true
    (Nat.Fault.info (resolve ()) = Nat.Fault.info (resolve ()))

let test_fires_once () =
  let f =
    Nat.Fault.resolve ~domains:4 ~sites:10
      (Nat.Fault.Exact { kind = Nat.Fault.Worker_raise; domain = -1; site = 3 })
  in
  let fo = Some f in
  Alcotest.(check bool) "not before the armed site" false
    (Nat.Fault.fires fo Nat.Fault.Worker_raise ~domain:1 ~site:2);
  Alcotest.(check bool) "not on another kind" false
    (Nat.Fault.fires fo Nat.Fault.Queue_stall ~domain:1 ~site:3);
  Alcotest.(check bool) "fires at-or-after on any domain" true
    (Nat.Fault.fires fo Nat.Fault.Worker_raise ~domain:2 ~site:5);
  Alcotest.(check bool) "fires exactly once" false
    (Nat.Fault.fires fo Nat.Fault.Worker_raise ~domain:2 ~site:5);
  Alcotest.(check bool) "fired is observable" true (Nat.Fault.fired fo);
  Alcotest.(check bool) "None never fires" false
    (Nat.Fault.fires None Nat.Fault.Worker_raise ~domain:0 ~site:0);
  let pinned =
    Nat.Fault.resolve ~domains:4 ~sites:10
      (Nat.Fault.Exact { kind = Nat.Fault.Poison_cond; domain = 2; site = 0 })
  in
  Alcotest.(check bool) "pinned domain ignores others" false
    (Nat.Fault.fires (Some pinned) Nat.Fault.Poison_cond ~domain:1 ~site:4);
  Alcotest.(check bool) "pinned domain fires on its own" true
    (Nat.Fault.fires (Some pinned) Nat.Fault.Poison_cond ~domain:2 ~site:4)

(* ---------- watchdog ---------- *)

let test_watchdog_stalled_queue () =
  (* A consumer popping an empty queue whose producer never shows up must
     get a typed Stalled promptly, not spin forever. *)
  let q = Nat.Spsc.create ~dummy:0 ~capacity:4 in
  let wd = Nat.Watchdog.create ~wait_timeout_ms:50. () in
  (match Nat.Spsc.pop ~wd ~role:"consumer" q with
  | (_ : int) -> Alcotest.fail "pop of an empty queue returned"
  | exception Nat.Watchdog.Stalled { role; waited_ns; _ } ->
      Alcotest.(check string) "stall names the waiter" "consumer" role;
      Alcotest.(check bool) "waited at least the timeout" true
        (waited_ns >= 50e6 *. 0.5);
      Alcotest.(check bool) "gave up well before forever" true
        (waited_ns < 30e9));
  Alcotest.(check int) "stall counted" 1 (Nat.Watchdog.stalls wd)

let test_watchdog_cancellation () =
  let wd = Nat.Watchdog.unbounded () in
  Alcotest.(check bool) "no root cause yet" true
    (Nat.Watchdog.root_cause wd = None);
  Alcotest.(check bool) "first cancel wins" true (Nat.Watchdog.cancel wd Exit);
  Alcotest.(check bool) "second cancel loses" false
    (Nat.Watchdog.cancel wd Not_found);
  (match Nat.Watchdog.root_cause wd with
  | Some Exit -> ()
  | _ -> Alcotest.fail "root cause is the first exception");
  Alcotest.check_raises "waits observe the token"
    (Nat.Watchdog.Cancelled "w") (fun () ->
      Nat.Watchdog.wait ~wd ~role:"w" ~for_:"nothing" ~on:[] (fun () -> false))

(* ---------- graceful degradation matrix ---------- *)

let wl () = Wl.Registry.find "SYMM"

let native_opts ?(degrade = true) spec_str =
  let spec =
    match Nat.Fault.spec_of_string spec_str with
    | Ok s -> s
    | Error m -> Alcotest.fail m
  in
  {
    C.native_defaults with
    C.fault = Some spec;
    wait_timeout_ms = Some 2000.;
    degrade;
  }

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* Every failed attempt must leave a parseable postmortem next to a Perfetto
   trace: the triggering event, a full stall attribution and a bottleneck
   verdict.  This is the acceptance criterion for the whole fault matrix. *)
let check_postmortem path =
  Alcotest.(check bool) (path ^ " exists") true (Sys.file_exists path);
  let body = read_file path in
  Alcotest.(check bool) "postmortem header" true
    (contains body "# xinv-postmortem/1");
  Alcotest.(check bool) "postmortem has reason:" true (contains body "\nreason: ");
  let has_event =
    List.exists
      (fun k -> contains body ("\nevent: " ^ k))
      [ "fault_injected"; "run_stalled"; "run_cancelled"; "exception" ]
  in
  Alcotest.(check bool) "postmortem names the triggering event" true has_event;
  Alcotest.(check bool) "postmortem has stall-attribution:" true
    (contains body "\nstall-attribution:\n  ");
  Alcotest.(check bool) "postmortem has bottleneck:" true
    (contains body "\nbottleneck: ");
  let trace = Filename.remove_extension path ^ ".trace.json" in
  Alcotest.(check bool) (trace ^ " exists") true (Sys.file_exists trace)

let fresh_pm_dir () =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "xinv-pm-%d-%d" (Unix.getpid ()) (Random.bits ()))
  in
  d

(* One engine, one fault kind: the run must not hang, must unwind cleanly,
   must degrade to a weaker technique and still produce a verified result,
   and the counters must reconcile with the outcome. *)
let check_degrades technique spec_str () =
  let obs = Xinv_obs.Recorder.create () in
  let pm_dir = fresh_pm_dir () in
  let opts = { (native_opts spec_str) with C.postmortem_dir = Some pm_dir } in
  let o =
    C.run_request @@ C.Request.make
      ~backend:(`Native opts) ~input:Wl.Workload.Train ~obs ~technique
      ~threads:4 (wl ())
  in
  Alcotest.(check int)
    "one postmortem per degradation step"
    (List.length o.C.degraded)
    (List.length o.C.postmortems);
  List.iter check_postmortem o.C.postmortems;
  Alcotest.(check bool) "degraded at least one level" true (o.C.degraded <> []);
  Alcotest.(check bool) "executed a weaker technique" true
    (o.C.technique <> technique);
  Alcotest.(check bool) "degraded run verified" true o.C.verified;
  let counters = Xinv_obs.Metrics.counters (Xinv_obs.Recorder.metrics obs) in
  Alcotest.(check (option int))
    "fault fired exactly once" (Some 1)
    (List.assoc_opt "fault.injected" counters);
  Alcotest.(check (option int))
    "degrade.level matches the steps taken"
    (Some (List.length o.C.degraded))
    (List.assoc_opt "degrade.level" counters);
  let is_stall_kind =
    String.length spec_str >= 5
    && (String.sub spec_str 0 5 = "stall" || String.sub spec_str 0 5 = "poiso")
  in
  if is_stall_kind then
    Alcotest.(check bool) "stalls were counted" true
      (match List.assoc_opt "watchdog.stall" counters with
      | Some n -> n >= 1
      | None -> false)

let fault_matrix =
  [
    (C.Barrier, "raise@*:2");
    (C.Barrier, "poison@*:2");
    (C.Domore, "raise@*:2");
    (C.Domore, "sched-die@2");
    (C.Domore, "stall@*:2");
    (C.Domore, "poison@*:2");
    (C.Domore_dup, "raise@*:2");
    (C.Domore_dup, "poison@*:2");
    (C.Speccross, "raise@*:2");
    (C.Speccross, "sched-die@2");
    (C.Speccross, "checker-die@2");
    (C.Speccross, "stall@*:2");
    (C.Speccross, "poison@*:2");
  ]

let test_no_degrade_raises_typed_error () =
  match
    C.run_request @@ C.Request.make
      ~backend:(`Native (native_opts ~degrade:false "raise@*:1"))
      ~input:Wl.Workload.Train ~technique:C.Barrier ~threads:3 (wl ())
  with
  | (_ : C.outcome) -> Alcotest.fail "the injected fault should escape"
  | exception Nat.Fault.Injected { kind = Nat.Fault.Worker_raise; _ } -> ()

let test_degraded_sequential_still_answers () =
  (* Degrading all the way down must still give the sequential result: the
     scheduler dies, DOMORE's whole chain falls through to plain barriers
     or sequential execution, and the answer stays bit-exact. *)
  let o =
    C.run_request @@ C.Request.make
      ~backend:(`Native (native_opts "sched-die@0"))
      ~input:Wl.Workload.Train ~technique:C.Domore ~threads:4 (wl ())
  in
  Alcotest.(check bool) "verified" true o.C.verified;
  Alcotest.(check bool) "speedup stays finite" true
    (Float.is_finite (Option.get o.C.speedup))

(* ---------- backend applicability ---------- *)

let test_backend_applicability () =
  let wl = wl () in
  (match C.applicable ~backend:`Native C.Doacross wl with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "DOACROSS has no native engine");
  List.iter
    (fun t ->
      match C.applicable ~backend:`Native t wl with
      | Ok () -> ()
      | Error r -> Alcotest.fail r)
    [ C.Sequential; C.Barrier; C.Speccross ];
  let native = C.supported ~backend:`Native in
  Alcotest.(check bool) "native lists domore" true (List.mem C.Domore native);
  Alcotest.(check bool) "native omits dswp" false (List.mem C.Dswp native);
  Alcotest.(check bool) "sim lists tls" true
    (List.mem C.Tls (C.supported ~backend:`Sim))

(* ---------- technique names and the shared engine configuration ---------- *)

let gen_technique =
  QCheck.Gen.(
    oneof
      [
        oneofl
          [ C.Sequential; C.Barrier; C.Doacross; C.Dswp; C.Inspector; C.Tls;
            C.Domore; C.Domore_dup; C.Speccross ];
        map (fun e -> C.Speccross_inject e) (int_range 0 100_000);
      ])

let prop_technique_roundtrip =
  QCheck.Test.make ~name:"api: technique_of_string inverts technique_name"
    ~count:200
    (QCheck.make ~print:C.technique_name gen_technique)
    (fun t -> C.technique_of_string (C.technique_name t) = Some t)

(* [xinv trace] renders [simulate ~trace:true]; it must be the run that
   [run_request] executes, engine configuration included (CG under
   SPECCROSS at 8 threads takes the §4.4 barrier fallback). *)
let test_simulate_matches_run_request () =
  List.iter
    (fun (technique, names) ->
      List.iter
        (fun name ->
          let req =
            C.Request.make ~input:Wl.Workload.Train ~technique ~threads:8
              (Wl.Registry.find name)
          in
          let label = name ^ "/" ^ C.technique_name technique in
          match (C.simulate ~trace:true req, (C.run_request req).C.run) with
          | Some t, Some r ->
              Alcotest.(check (float 0.)) (label ^ " makespan")
                r.Xinv_parallel.Run.makespan t.Xinv_parallel.Run.makespan
          | _ -> Alcotest.fail (label ^ ": no simulated run"))
        names)
    [
      (C.Barrier, [ "JACOBI"; "CG" ]);
      (C.Domore, [ "CG"; "SYMM" ]);
      (C.Speccross, [ "JACOBI"; "FDTD"; "CG" ]);
    ]

(* ---------- parking: wakes, bounds, no lost wake-up ---------- *)

(* Long enough that a waiter has left its spin phase (about 60 us) and is
   parked in the kernel when the release comes. *)
let past_spin_budget = 0.02

(* A waiter that outlives its spin phase and parks is woken by [release]
   promptly.  Its per-wait bound is 10 s, so a lost wake-up fails as a
   [Stalled] instead of hanging, and the 1 s check tells the two apart. *)
let check_woken name ~expect ~wait ~release =
  let d =
    Domain.spawn (fun () ->
        let r =
          match wait () with
          | r -> r
          | exception Nat.Watchdog.Cancelled _ -> "Cancelled"
          | exception Nat.Watchdog.Stalled _ -> "Stalled"
        in
        (r, Unix.gettimeofday ()))
  in
  Unix.sleepf past_spin_budget;
  let released = Unix.gettimeofday () in
  release ();
  let r, woke = Domain.join d in
  Alcotest.(check string) (name ^ ": outcome") expect r;
  Alcotest.(check bool)
    (Printf.sprintf "%s: woken %.1f ms after the release" name
       ((woke -. released) *. 1e3))
    true
    (woke -. released < 1.0)

let test_parked_waiters_wake () =
  let bounded () = Nat.Watchdog.create ~wait_timeout_ms:10_000. () in
  (let wd = bounded () in
   let bar = Nat.Nbar.create ~parties:2 in
   check_woken "barrier release" ~expect:"released"
     ~wait:(fun () -> Nat.Nbar.wait ~wd bar; "released")
     ~release:(fun () -> Nat.Nbar.wait ~wd bar));
  let cancel wd () = ignore (Nat.Watchdog.cancel wd Exit : bool) in
  (let wd = bounded () in
   let bar = Nat.Nbar.create ~parties:2 in
   check_woken "cancel wakes Nbar.wait" ~expect:"Cancelled"
     ~wait:(fun () -> Nat.Nbar.wait ~wd bar; "released")
     ~release:(cancel wd));
  (let wd = bounded () in
   let q = Nat.Spsc.create ~dummy:0 ~capacity:1 in
   Nat.Spsc.push q 1;
   check_woken "cancel wakes Spsc.push into a full queue" ~expect:"Cancelled"
     ~wait:(fun () -> Nat.Spsc.push ~wd q 2; "pushed")
     ~release:(cancel wd));
  (let wd = bounded () in
   let q = Nat.Spsc.create ~dummy:0 ~capacity:2 in
   let b = Nat.Spsc.Batch.create ~size:4 q in
   for i = 1 to 4 do
     ignore (Nat.Spsc.Batch.add b i : bool)
   done;
   check_woken "cancel wakes Batch.flush of stranded words" ~expect:"Cancelled"
     ~wait:(fun () -> Nat.Spsc.Batch.flush ~wd b; "flushed")
     ~release:(cancel wd));
  (let wd = bounded () in
   let q = Nat.Spsc.create ~dummy:0 ~capacity:4 in
   check_woken "push" ~expect:"42"
     ~wait:(fun () -> string_of_int (Nat.Spsc.pop ~wd q))
     ~release:(fun () -> Nat.Spsc.push q 42));
  let wd = bounded () in
  let q = Nat.Spsc.create ~dummy:0 ~capacity:4 in
  check_woken "cancel wakes Spsc.pop" ~expect:"Cancelled"
    ~wait:(fun () -> string_of_int (Nat.Spsc.pop ~wd q))
    ~release:(cancel wd)

let test_parked_pop_times_out () =
  let q = Nat.Spsc.create ~dummy:0 ~capacity:4 in
  let wd = Nat.Watchdog.create ~wait_timeout_ms:50. () in
  let t0 = Unix.gettimeofday () in
  match Nat.Spsc.pop ~wd q with
  | (_ : int) -> Alcotest.fail "pop of an empty queue returned"
  | exception Nat.Watchdog.Stalled _ ->
      let ms = (Unix.gettimeofday () -. t0) *. 1e3 in
      Alcotest.(check bool)
        (Printf.sprintf "parked pop gave up after %.1f ms (bound 50 ms)" ms)
        true
        (ms >= 49. && ms < 250.)

(* Seeded delays on both sides of the spin budget: most rounds arrive while
   the peer still spins, one in eight after it has parked. *)
let delay rng =
  match Xinv_util.Prng.int rng 8 with
  | 0 -> Unix.sleepf 1e-4
  | 1 | 2 | 3 ->
      for _ = 1 to Xinv_util.Prng.int rng 200 do
        Domain.cpu_relax ()
      done
  | _ -> ()

let test_no_lost_wakeup_stress () =
  (* Every wait is bounded at 10 s: a lost wake-up fails as Stalled. *)
  let wd = Nat.Watchdog.create ~wait_timeout_ms:10_000. () in
  let n = 20_000 in
  let bar = Nat.Nbar.create ~parties:2 in
  let peer =
    Domain.spawn (fun () ->
        let rng = Xinv_util.Prng.create ~seed:2 in
        for _ = 1 to n do
          delay rng;
          Nat.Nbar.wait ~wd ~role:"peer" bar
        done)
  in
  let rng = Xinv_util.Prng.create ~seed:1 in
  for _ = 1 to n do
    delay rng;
    Nat.Nbar.wait ~wd ~role:"main" bar
  done;
  Domain.join peer;
  Alcotest.(check int) "every barrier episode completed" n (Nat.Nbar.waits bar);
  (* Capacity-1 ping-pong: the second push of each round waits for the
     echo side's pop, and each pop waits for the peer's push. *)
  let ping = Nat.Spsc.create ~dummy:0 ~capacity:1 in
  let pong = Nat.Spsc.create ~dummy:0 ~capacity:1 in
  let echo =
    Domain.spawn (fun () ->
        let rng = Xinv_util.Prng.create ~seed:3 in
        for _ = 1 to n do
          let x = Nat.Spsc.pop ~wd ping in
          delay rng;
          let y = Nat.Spsc.pop ~wd ping in
          Nat.Spsc.push ~wd pong (if x = y then x else -1)
        done)
  in
  let rng = Xinv_util.Prng.create ~seed:4 in
  let bad = ref 0 in
  for i = 1 to n do
    Nat.Spsc.push ~wd ping i;
    Nat.Spsc.push ~wd ping i;
    delay rng;
    if Nat.Spsc.pop ~wd pong <> i then incr bad
  done;
  Domain.join echo;
  Alcotest.(check int) "every item echoed in order" 0 !bad;
  (* Pool runs separated by idle gaps past the spin budget, so the workers
     park between jobs and the hand-off must wake them. *)
  let done_ = Atomic.make 0 in
  let runs = 2_000 in
  Nat.Pool.with_pool ~workers:2 (fun pool ->
      let job () = Atomic.incr done_ in
      for _ = 1 to runs do
        Unix.sleepf 1e-4;
        Nat.Pool.run ~wd pool [| job; job; job |]
      done);
  Alcotest.(check int) "every pool job ran" (3 * runs) (Atomic.get done_);
  Alcotest.(check int) "no wait stalled" 0 (Nat.Watchdog.stalls wd)

(* ---------- cancellation unwinds through the watchdog alone ---------- *)

(* A cohort whose watchdog is already cancelled must raise the root cause,
   not return as if it had completed, and must leave the pool usable. *)
let test_cancelled_engines_raise_root () =
  let wl = wl () in
  let input = Wl.Workload.Train in
  let program = wl.Wl.Workload.program input in
  let plan =
    match Ir.Mtcg.generate program (wl.Wl.Workload.fresh_env input) with
    | Ir.Mtcg.Plan plan -> plan
    | Ir.Mtcg.Inapplicable r -> Alcotest.fail r
  in
  Nat.Pool.with_pool ~workers:3 (fun pool ->
      let check name run =
        let wd = Nat.Watchdog.unbounded () in
        ignore (Nat.Watchdog.cancel wd Exit : bool);
        let env = wl.Wl.Workload.fresh_env input in
        Alcotest.check_raises (name ^ ": raises the root cause") Exit
          (fun () -> ignore (run wd env : Nat.Nrun.t));
        Alcotest.(check bool) (name ^ ": pool stays live") true
          (Nat.Pool.live pool)
      in
      check "barrier" (fun wd env ->
          Nat.Nbarrier.run ~pool ~wd ~threads:4
            ~plan:(Wl.Workload.plan_fn wl) program env);
      check "domore" (fun wd env ->
          Nat.Ndomore.run ~pool ~wd ~plan program env);
      check "domore-dup" (fun wd env ->
          Nat.Ndomore.run_duplicated ~pool ~wd ~plan program env);
      check "speccross" (fun wd env ->
          let config =
            { (Nat.Nspec.default_config ~workers:3) with
              Nat.Nspec.mode_of = C.spec_mode_of_plan wl }
          in
          Nat.Nspec.run ~pool ~wd ~config program env))

(* A caller's cancellation is final: the request raises [Cancelled] from
   its first attempt instead of degrading to a weaker technique. *)
let test_caller_cancel_is_final () =
  List.iter
    (fun technique ->
      let name = C.technique_name technique in
      let attempts = ref 0 in
      let on_watchdog wd =
        incr attempts;
        ignore (Nat.Watchdog.cancel wd (Nat.Watchdog.Cancelled "caller") : bool)
      in
      let opts = { C.native_defaults with C.on_watchdog = Some on_watchdog } in
      (match
         C.run_request @@ C.Request.make ~backend:(`Native opts)
           ~input:Wl.Workload.Train ~technique ~threads:4 (wl ())
       with
      | (_ : C.outcome) -> Alcotest.fail (name ^ ": a cancelled request returned")
      | exception Nat.Watchdog.Cancelled _ -> ());
      Alcotest.(check int) (name ^ ": exactly one attempt") 1 !attempts)
    [ C.Barrier; C.Domore; C.Speccross ]

let suite =
  [
    Alcotest.test_case "fault: spec parsing and round trip" `Quick
      test_spec_parsing;
    Alcotest.test_case "fault: random resolution is deterministic" `Quick
      test_random_resolve_deterministic;
    Alcotest.test_case "fault: fires exactly once at-or-after the site" `Quick
      test_fires_once;
    Alcotest.test_case "watchdog: empty queue pop raises Stalled" `Quick
      test_watchdog_stalled_queue;
    Alcotest.test_case "watchdog: first cancel wins, waits observe it" `Quick
      test_watchdog_cancellation;
    Alcotest.test_case "degrade: no-degrade raises the typed error" `Quick
      test_no_degrade_raises_typed_error;
    Alcotest.test_case "degrade: bottom of the chain still answers" `Quick
      test_degraded_sequential_still_answers;
    Alcotest.test_case "api: per-backend applicability and support" `Quick
      test_backend_applicability;
    QCheck_alcotest.to_alcotest prop_technique_roundtrip;
    Alcotest.test_case "api: trace's engine call matches run_request" `Quick
      test_simulate_matches_run_request;
  ]
  @ List.map
      (fun (technique, spec) ->
        Alcotest.test_case
          (Printf.sprintf "matrix: %s survives %s"
             (C.technique_name technique)
             spec)
          `Quick
          (check_degrades technique spec))
      fault_matrix
  @ [
      Alcotest.test_case "park: parked waiters wake on every release" `Quick
        test_parked_waiters_wake;
      Alcotest.test_case "park: bounded parked pop raises Stalled on time"
        `Quick test_parked_pop_times_out;
      Alcotest.test_case "park: no lost wake-up under stress" `Quick
        test_no_lost_wakeup_stress;
      Alcotest.test_case "cancel: a cancelled cohort raises its root cause"
        `Quick test_cancelled_engines_raise_root;
      Alcotest.test_case "cancel: a caller's cancellation is not degraded"
        `Quick test_caller_cancel_is_final;
    ]
