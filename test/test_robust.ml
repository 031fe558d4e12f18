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
      Nat.Watchdog.wait wd ~role:"w" ~for_:"nothing" (fun () -> false))

(* ---------- primitive unwinding ---------- *)

let test_spsc_close () =
  let q = Nat.Spsc.create ~dummy:0 ~capacity:4 in
  Alcotest.(check bool) "push 1" true (Nat.Spsc.try_push q 1);
  Alcotest.(check bool) "push 2" true (Nat.Spsc.try_push q 2);
  Nat.Spsc.close q;
  Alcotest.check_raises "producer wakes with Closed" Nat.Spsc.Closed (fun () ->
      Nat.Spsc.push q 3);
  Alcotest.(check int) "consumer drains first" 1 (Nat.Spsc.pop q);
  Alcotest.(check int) "consumer drains second" 2 (Nat.Spsc.pop q);
  Alcotest.check_raises "then observes Closed" Nat.Spsc.Closed (fun () ->
      ignore (Nat.Spsc.pop q : int))

let test_nbar_poison () =
  let bar = Nat.Nbar.create ~parties:2 in
  let woke = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        match Nat.Nbar.wait bar with
        | () -> ()
        | exception Nat.Nbar.Poisoned -> Atomic.set woke true)
  in
  Nat.Nbar.poison bar;
  Domain.join d;
  Alcotest.(check bool) "blocked party wakes with Poisoned" true
    (Atomic.get woke);
  Alcotest.check_raises "later waits fail fast" Nat.Nbar.Poisoned (fun () ->
      Nat.Nbar.wait bar)

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
    Alcotest.test_case "spsc: close drains then raises" `Quick test_spsc_close;
    Alcotest.test_case "nbar: poison wakes blocked parties" `Quick
      test_nbar_poison;
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
