(* Observability layer: metrics registry, event recorder, Perfetto export
   and the zero-perturbation guarantee (obs on/off runs are bit-identical). *)

module Obs = Xinv_obs
module Sim = Xinv_sim
module Cx = Xinv_core.Crossinv
module Wl = Xinv_workloads

(* ---- a minimal JSON parser, enough to validate exporter output ---- *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad_json of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at offset %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    String.iter (fun c -> expect c) word;
    v
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
          advance ();
          (match peek () with
          | Some 'n' -> Buffer.add_char b '\n'
          | Some 't' -> Buffer.add_char b '\t'
          | Some 'r' -> Buffer.add_char b '\r'
          | Some 'b' -> Buffer.add_char b '\b'
          | Some 'f' -> Buffer.add_char b '\012'
          | Some 'u' ->
              (* skip the four hex digits; exact code point is irrelevant here *)
              for _ = 1 to 4 do
                advance ()
              done;
              Buffer.add_char b '?'
          | Some c -> Buffer.add_char b c
          | None -> fail "bad escape");
          advance ();
          loop ()
      | Some c ->
          Buffer.add_char b c;
          advance ();
          loop ()
    in
    loop ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((k, v) :: acc)
            | Some '}' ->
                advance ();
                Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          members []
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let rec elems acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elems (v :: acc)
            | Some ']' ->
                advance ();
                Arr (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          elems []
        end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
    | None -> fail "unexpected end of input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let contains ~affix s =
  let n = String.length s and m = String.length affix in
  let rec scan i = i + m <= n && (String.sub s i m = affix || scan (i + 1)) in
  m = 0 || scan 0

let member k = function
  | Obj kvs -> (
      match List.assoc_opt k kvs with Some v -> v | None -> Null)
  | _ -> Null

let str_of = function Str s -> s | _ -> ""
let num_of = function Num f -> f | _ -> nan

(* ---- metrics registry ---- *)

let test_metrics_counter () =
  let m = Obs.Metrics.create () in
  let c = Obs.Metrics.counter m "tasks" in
  let c' = Obs.Metrics.counter m "tasks" in
  Obs.Metrics.incr c;
  Obs.Metrics.incr c';
  Obs.Metrics.add c 5;
  Alcotest.(check (list (pair string int)))
    "find-or-create shares the handle" [ ("tasks", 7) ] (Obs.Metrics.counters m)

let test_metrics_gauge () =
  let m = Obs.Metrics.create () in
  let g = Obs.Metrics.gauge m "lead" in
  Obs.Metrics.set g 3.5;
  Obs.Metrics.acc g 1.5;
  let h = Obs.Metrics.gauge m "other" in
  Obs.Metrics.set h 1.0;
  Alcotest.(check (list (pair string (float 1e-9))))
    "gauges in registration order"
    [ ("lead", 5.0); ("other", 1.0) ]
    (Obs.Metrics.gauges m)

let test_metrics_histogram () =
  let m = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram m ~bounds:[| 1.; 10.; 100. |] "lat" in
  List.iter (fun v -> Obs.Metrics.observe h v) [ 0.5; 5.; 5.; 50.; 500. ];
  Alcotest.(check int) "count" 5 h.Obs.Metrics.h_count;
  Alcotest.(check (float 1e-9)) "sum" 560.5 h.Obs.Metrics.h_sum;
  (* p50 falls in the (1,10] bucket, whose upper bound is reported. *)
  Alcotest.(check (float 1e-9)) "p50 bucket bound" 10. (Obs.Metrics.quantile h 0.5);
  Alcotest.(check bool) "p99 lands in the overflow bucket" true
    (Obs.Metrics.quantile h 0.99 = infinity)

(* ---- recorder ---- *)

let test_recorder_order () =
  let r = Obs.Recorder.create () in
  for i = 0 to 99 do
    Obs.Recorder.emit r ~at:(float_of_int i) ~domain:(i mod 3)
      Obs.Flight.Barrier_release ~a:i ~b:0
  done;
  Alcotest.(check int) "length" 100 (Obs.Recorder.length r);
  let seen = ref (-1) in
  List.iter
    (fun (e : Obs.Flight.entry) ->
      Alcotest.(check bool) "append order preserved" true (e.Obs.Flight.f_at > !seen);
      seen := e.Obs.Flight.f_at)
    (Obs.Recorder.flight r);
  Alcotest.(check int) "last timestamp" 99 !seen

(* ---- Perfetto export: valid JSON, tracks, phases, monotone timestamps ---- *)

let domore_traced_run () =
  let wl = Wl.Registry.find "CG" in
  let program = wl.Wl.Workload.program Wl.Workload.Train in
  let env = wl.Wl.Workload.fresh_env Wl.Workload.Train in
  match Xinv_ir.Mtcg.generate program env with
  | Xinv_ir.Mtcg.Inapplicable reason -> Alcotest.fail reason
  | Xinv_ir.Mtcg.Plan plan ->
      let obs = Obs.Recorder.create () in
      let config = Xinv_domore.Domore.default_config ~workers:3 in
      let r = Xinv_domore.Domore.run ~config ~obs ~trace:true ~plan program env in
      (r, obs)

let test_perfetto_export () =
  let r, obs = domore_traced_run () in
  let eng = r.Xinv_parallel.Run.engine in
  let json =
    Obs.Perfetto.to_json ~clock:Obs.Flight.Cycles ~tracks:(Xinv_parallel.Run.tracks r)
      ~segments:(Sim.Engine.segments eng) (Obs.Recorder.flight obs)
  in
  let doc = parse_json json in
  let events = match member "traceEvents" doc with Arr l -> l | _ -> [] in
  Alcotest.(check bool) "has events" true (events <> []);
  (* Exactly one thread_name metadata record per engine thread. *)
  let tracks =
    List.filter_map
      (fun e ->
        if member "ph" e = Str "M" && member "name" e = Str "thread_name" then
          Some (int_of_float (num_of (member "tid" e)))
        else None)
      events
  in
  Alcotest.(check (list int)) "one track per tid"
    (List.init (Sim.Engine.thread_count eng) Fun.id)
    (List.sort compare tracks);
  (* Duration, instant and counter events are all present. *)
  let count ph =
    List.length (List.filter (fun e -> member "ph" e = Str ph) events)
  in
  Alcotest.(check bool) "duration events" true (count "X" > 0);
  Alcotest.(check bool) "instant events" true (count "i" > 0);
  Alcotest.(check bool) "counter events" true (count "C" > 0);
  (* Engine.segments round-trip: every segment is one X event besides the
     stall spans. *)
  let stall_spans =
    List.length (List.filter (fun e -> member "cat" e = Str "stall") events)
  in
  Alcotest.(check bool) "stall spans" true (stall_spans > 0);
  Alcotest.(check int) "segments round-trip" (List.length (Sim.Engine.segments eng))
    (count "X" - stall_spans);
  (* Per-track segment timestamps are monotone non-decreasing with
     non-negative durations. *)
  let last = Hashtbl.create 8 in
  List.iter
    (fun e ->
      if member "ph" e = Str "X" && member "cat" e <> Str "stall" then begin
        let tid = int_of_float (num_of (member "tid" e)) in
        let ts = num_of (member "ts" e) in
        let dur = num_of (member "dur" e) in
        let prev = try Hashtbl.find last tid with Not_found -> -1. in
        Alcotest.(check bool) "ts monotone per track" true (ts >= prev);
        Alcotest.(check bool) "dur non-negative" true (dur >= 0.);
        Hashtbl.replace last tid ts
      end)
    events

let test_report_contents () =
  let obs = Obs.Recorder.create () in
  let o =
    Cx.run_request
    @@ Cx.Request.make ~input:Wl.Workload.Train ~obs ~technique:Cx.Domore ~threads:4
         (Wl.Registry.find "CG")
  in
  let r = match o.Cx.run with Some r -> r | None -> Alcotest.fail "no run" in
  let report = match Cx.report ~obs o with Some r -> r | None -> Alcotest.fail "no report" in
  Alcotest.(check bool) "events were logged" true (report.Obs.Report.events_logged > 0);
  Alcotest.(check bool) "queue occupancy computed" true
    (report.Obs.Report.queue_occupancy <> None);
  let dispatched =
    List.assoc_opt "domore.tasks_dispatched" report.Obs.Report.counters
  in
  Alcotest.(check (option int)) "dispatch counter matches tasks"
    (Some r.Xinv_parallel.Run.tasks) dispatched;
  let rendered = Format.asprintf "%a" Obs.Report.pp report in
  Alcotest.(check bool) "report lists the forwarded sync conditions" true
    (contains ~affix:"domore.sync_conds_forwarded" rendered);
  Alcotest.(check bool) "report breaks stalls down by cause" true
    (contains ~affix:"worker stall time by cause" rendered)

let test_misspec_report () =
  let wl = Wl.Registry.find "JACOBI" in
  let obs = Obs.Recorder.create () in
  let o =
    Cx.run_request @@ Cx.Request.make ~input:Wl.Workload.Train ~obs ~technique:(Cx.Speccross_inject 5)
      ~threads:8 wl
  in
  let r = match o.Cx.run with Some r -> r | None -> Alcotest.fail "no run" in
  let report = match Cx.report ~obs o with Some r -> r | None -> Alcotest.fail "no report" in
  let counter k = List.assoc_opt k report.Obs.Report.counters in
  Alcotest.(check bool) "run misspeculated" true (r.Xinv_parallel.Run.misspecs > 0);
  Alcotest.(check (option int)) "report agrees with the run"
    (Some r.Xinv_parallel.Run.misspecs) (counter "speccross.misspeculations");
  Alcotest.(check bool) "recovery time attributed" true
    (Option.value ~default:0 (counter "speccross.recovery_time") > 0);
  Alcotest.(check bool) "redone epochs counted" true
    (Option.value ~default:0 (counter "speccross.epochs_redone") > 0);
  let rendered = Format.asprintf "%a" Obs.Report.pp report in
  Alcotest.(check bool) "report prints the speculation counters" true
    (contains ~affix:"speccross.epochs_committed" rendered)

(* ---- the tentpole guarantee: observation cannot perturb the run ---- *)

let fixed_runs =
  [
    ("CG", Cx.Domore, 8);
    ("BLACKSCHOLES", Cx.Domore, 8);
    ("JACOBI", Cx.Speccross, 8);
    ("FDTD", Cx.Speccross, 8);
    ("SYMM", Cx.Barrier, 4);
    ("SYMM", Cx.Doacross, 4);
    ("SYMM", Cx.Dswp, 4);
    ("SYMM", Cx.Inspector, 4);
    ("SYMM", Cx.Tls, 4);
  ]

let test_obs_off_bit_identical () =
  List.iter
    (fun (name, technique, threads) ->
      let wl = Wl.Registry.find name in
      let off = Cx.run_request @@ Cx.Request.make ~input:Wl.Workload.Train ~technique ~threads wl in
      let obs = Obs.Recorder.create () in
      let on = Cx.run_request @@ Cx.Request.make ~input:Wl.Workload.Train ~obs ~technique ~threads wl in
      let tag field = Printf.sprintf "%s/%s: %s" name (Cx.technique_name technique) field in
      let get o f = match o.Cx.run with Some r -> f r | None -> Alcotest.fail "no run" in
      Alcotest.(check (float 0.)) (tag "makespan")
        (get off (fun r -> r.Xinv_parallel.Run.makespan))
        (get on (fun r -> r.Xinv_parallel.Run.makespan));
      Alcotest.(check int) (tag "tasks")
        (get off (fun r -> r.Xinv_parallel.Run.tasks))
        (get on (fun r -> r.Xinv_parallel.Run.tasks));
      Alcotest.(check int) (tag "checks")
        (get off (fun r -> r.Xinv_parallel.Run.checks))
        (get on (fun r -> r.Xinv_parallel.Run.checks));
      Alcotest.(check int) (tag "misspecs")
        (get off (fun r -> r.Xinv_parallel.Run.misspecs))
        (get on (fun r -> r.Xinv_parallel.Run.misspecs));
      Alcotest.(check bool) (tag "verified") off.Cx.verified on.Cx.verified;
      Alcotest.(check bool) (tag "instrumented run logged events") true
        (Obs.Recorder.length obs > 0))
    fixed_runs

(* ---- flight recorder: ring wraparound and drop accounting ---- *)

let test_flight_wraparound () =
  (* Capacities 1, 2 and 2^k +/- 1 around the events count: the index
     arithmetic must survive non-power-of-two rings and single-slot rings. *)
  let nevents = 13 in
  List.iter
    (fun cap ->
      let fl = Obs.Flight.create ~capacity:cap ~domains:1 () in
      for i = 0 to nevents - 1 do
        Obs.Flight.record fl ~domain:0 Obs.Flight.Mark ~a:i ~b:(i * 10)
      done;
      let tag f = Printf.sprintf "cap %d: %s" cap f in
      let kept = min cap nevents in
      Alcotest.(check int) (tag "recorded") nevents
        (Obs.Flight.recorded fl ~domain:0);
      Alcotest.(check int) (tag "length") kept (Obs.Flight.length fl ~domain:0);
      Alcotest.(check int) (tag "drops") (nevents - kept)
        (Obs.Flight.drops fl ~domain:0);
      let entries = Obs.Flight.read fl ~domain:0 in
      Alcotest.(check int) (tag "read length") kept (List.length entries);
      (* Drop-oldest: the retained payloads are exactly the newest [kept]
         values, oldest first. *)
      Alcotest.(check (list int)) (tag "retained payloads")
        (List.init kept (fun k -> nevents - kept + k))
        (List.map (fun (e : Obs.Flight.entry) -> e.Obs.Flight.f_a) entries);
      List.iter
        (fun (e : Obs.Flight.entry) ->
          Alcotest.(check int) (tag "b rides along") (e.Obs.Flight.f_a * 10)
            e.Obs.Flight.f_b;
          Alcotest.(check string) (tag "kind survives") "mark"
            (Obs.Flight.kind_name e.Obs.Flight.f_kind))
        entries)
    [ 1; 2; 3; 4; 5; 7; 8; 9 ];
  (* Multi-ring accounting stays per-domain. *)
  let fl = Obs.Flight.create ~capacity:2 ~domains:3 () in
  Obs.Flight.record fl ~domain:2 Obs.Flight.Mark ~a:1 ~b:0;
  Alcotest.(check int) "untouched ring empty" 0 (Obs.Flight.length fl ~domain:0);
  Alcotest.(check int) "total length" 1 (Obs.Flight.total_length fl);
  Alcotest.(check int) "total drops" 0 (Obs.Flight.total_drops fl)

(* ---- one report, one trace format on both backends ---- *)

let keys = function Obj kvs -> List.map fst kvs | _ -> []

let known_causes = List.map Obs.Cause.name Obs.Cause.all

let test_one_report_both_backends () =
  let wl = Wl.Registry.find "SYMM" in
  List.iter
    (fun technique ->
      let go backend =
        let obs = Obs.Recorder.create () in
        let o =
          Cx.run_request @@ Cx.Request.make ~backend ~input:Wl.Workload.Train ~obs ~technique
            ~threads:2 wl
        in
        let report =
          match Cx.report ~obs o with Some r -> r | None -> Alcotest.fail "no report"
        in
        let trace =
          match (o.Cx.run, o.Cx.flight) with
          | Some r, _ ->
              Obs.Perfetto.to_json ~clock:Obs.Flight.Cycles
                ~tracks:(Xinv_parallel.Run.tracks r) (Xinv_parallel.Run.entries r)
          | None, Some fl ->
              Obs.Perfetto.to_json ~clock:Obs.Flight.Ns ~tracks:(Obs.Flight.tracks fl)
                (Obs.Flight.entries fl)
          | None, None -> Alcotest.fail "no recording"
        in
        (parse_json (Obs.Report.to_json report), parse_json trace)
      in
      let tag f = Cx.technique_name technique ^ ": " ^ f in
      let sim_doc, sim_trace = go (`Sim None) in
      let nat_doc, nat_trace =
        go (`Native { Cx.native_defaults with Cx.flight = true })
      in
      Alcotest.(check (list string)) (tag "same keys on both backends") (keys sim_doc)
        (keys nat_doc);
      List.iter
        (fun doc ->
          Alcotest.(check string) (tag "schema") "xinv-stats/4" (str_of (member "schema" doc));
          Alcotest.(check (list string)) (tag "stall_by_cause lists every cause")
            known_causes (keys (member "stall_by_cause" doc)))
        [ sim_doc; nat_doc ];
      List.iter
        (fun trace ->
          let events = match member "traceEvents" trace with Arr l -> l | _ -> [] in
          Alcotest.(check bool) (tag "trace has events") true (events <> []);
          List.iter
            (fun e ->
              match member "name" e with
              | Str n when String.length n > 6 && String.sub n 0 6 = "stall:" ->
                  Alcotest.(check bool) (tag ("known stall span " ^ n)) true
                    (List.mem (String.sub n 6 (String.length n - 6)) known_causes)
              | _ -> ())
            events)
        [ sim_trace; nat_trace ])
    [ Cx.Barrier; Cx.Domore; Cx.Speccross ]

(* stall_by_cause counts blocked time only: on the sim it is exactly the
   stall-end entries, not the engine's queue/checker charges (which include
   each queue operation's cost and the checker's comparisons). *)
let test_stall_by_cause_blocked () =
  List.iter
    (fun (name, technique) ->
      let wl = Wl.Registry.find name in
      let obs = Obs.Recorder.create () in
      let o =
        Cx.run_request @@ Cx.Request.make ~input:Wl.Workload.Train ~obs ~technique ~threads:8 wl
      in
      let r = match o.Cx.run with Some r -> r | None -> Alcotest.fail "no run" in
      let report = Xinv_parallel.Run.report r in
      List.iter
        (fun c ->
          let from_entries =
            List.fold_left
              (fun acc (e : Obs.Flight.entry) ->
                if e.Obs.Flight.f_kind = Obs.Flight.Stall_end
                   && e.Obs.Flight.f_a = Obs.Cause.index c
                then acc +. float_of_int e.Obs.Flight.f_b
                else acc)
              0. (Xinv_parallel.Run.entries r)
          in
          Alcotest.(check (float 0.))
            (Printf.sprintf "%s/%s: %s" name (Cx.technique_name technique) (Obs.Cause.name c))
            from_entries
            (List.assoc c report.Obs.Report.stall_by_cause))
        Obs.Cause.all)
    [ ("JACOBI", Cx.Speccross); ("CG", Cx.Domore) ]

let test_native_rally_kept () =
  Alcotest.(check bool) "rally parses as Rally" true
    (Obs.Cause.of_name "rally" = Some Obs.Cause.Rally);
  let r =
    Obs.Report.build ~backend:"native" ~clock:Obs.Flight.Ns ~makespan:100.
      ~tracks:[| "domain 0" |]
      ~blocked:[ ("rally", 7.); ("throttle", 3.) ]
      []
  in
  Alcotest.(check (float 0.)) "rally kept" 7.
    (List.assoc Obs.Cause.Rally r.Obs.Report.stall_by_cause);
  Alcotest.(check (float 0.)) "throttle kept" 3.
    (List.assoc Obs.Cause.Throttle r.Obs.Report.stall_by_cause)

let test_percentile_nearest_rank () =
  Alcotest.(check (float 0.)) "p50 of [1; 2]" 1. (Obs.Report.percentile [| 1.; 2. |] 0.5);
  Alcotest.(check (float 0.)) "p99 of 1..100" 99.
    (Obs.Report.percentile (Array.init 100 (fun i -> float_of_int (i + 1))) 0.99)

(* ---- snapshot and OpenMetrics exposition ---- *)

let test_snapshot_openmetrics () =
  let m = Obs.Metrics.create () in
  let c = Obs.Metrics.counter m "cache.hit" in
  Obs.Metrics.add c 7;
  let g = Obs.Metrics.gauge m "spec-lead" in
  Obs.Metrics.set g 2.5;
  let h = Obs.Metrics.histogram m ~bounds:[| 1.; 10. |] "queue.depth" in
  List.iter (fun v -> Obs.Metrics.observe h v) [ 0.5; 5.; 50. ];
  let snap = Obs.Snapshot.take m in
  Alcotest.(check (option int)) "counter lookup" (Some 7)
    (Obs.Snapshot.counter snap "cache.hit");
  Alcotest.(check (option (float 1e-9))) "gauge lookup" (Some 2.5)
    (Obs.Snapshot.gauge snap "spec-lead");
  (* A snapshot is a copy: later mutation must not leak in. *)
  Obs.Metrics.add c 100;
  Obs.Metrics.observe h 5.;
  Alcotest.(check (option int)) "snapshot is frozen" (Some 7)
    (Obs.Snapshot.counter snap "cache.hit");
  let om = Obs.Snapshot.to_openmetrics snap in
  List.iter
    (fun affix ->
      Alcotest.(check bool) (Printf.sprintf "exposition has %S" affix) true
        (contains ~affix om))
    [
      "# TYPE xinv_cache_hit counter";
      "xinv_cache_hit_total 7";
      "# TYPE xinv_spec_lead gauge";
      "xinv_spec_lead 2.5";
      "# TYPE xinv_queue_depth histogram";
      "xinv_queue_depth_bucket{le=\"+Inf\"} 3";
      "xinv_queue_depth_count 3";
      "# EOF";
    ];
  (* Cumulative buckets: le="1" counts 1 observation, le="10" counts 2. *)
  Alcotest.(check bool) "buckets are cumulative" true
    (contains ~affix:"_bucket{le=\"1\"} 1" om
    && contains ~affix:"_bucket{le=\"10\"} 2" om)

(* ---- critical-path analysis over a synthetic recording ---- *)

let test_critpath_synthetic () =
  let fl = Obs.Flight.create ~capacity:64 ~domains:2 () in
  (* Domain 0 dispatches to domain 1; domain 1 receives, stalls on the
     sync-cond, and commits: dispatch -> first-event and commit edges give
     a chain of length >= 2. *)
  Obs.Flight.record fl ~domain:0 Obs.Flight.Dispatch ~a:0 ~b:1;
  Obs.Flight.record fl ~domain:1 Obs.Flight.Sync_recv ~a:0 ~b:0;
  Obs.Flight.record fl ~domain:1 Obs.Flight.Stall_end
    ~a:(Obs.Cause.index Obs.Cause.Sync_cond) ~b:5000;
  Obs.Flight.record fl ~domain:1 Obs.Flight.Epoch_commit ~a:0 ~b:0;
  let v = Obs.Report.of_flight ~wall_ns:10000. fl in
  Alcotest.(check int) "events" 4 v.Obs.Report.events_logged;
  Alcotest.(check int) "drops" 0 v.Obs.Report.drops;
  Alcotest.(check bool) "chain crosses the dispatch and the commit" true
    (v.Obs.Report.chain >= 2);
  Alcotest.(check bool) "dominant cause" true
    (v.Obs.Report.dominant_stall = Some Obs.Cause.Sync_cond);
  Alcotest.(check (float 1e-9)) "sync-cond attribution" 5000.
    (List.assoc Obs.Cause.Sync_cond v.Obs.Report.stall_by_cause);
  Alcotest.(check int) "all causes listed" Obs.Cause.count
    (List.length v.Obs.Report.stall_by_cause);
  (* 5000 ns blocked of 2 x 10000 ns capacity = 25% >= the 5% threshold. *)
  Alcotest.(check bool) "bottleneck names the cause" true
    (String.length v.Obs.Report.bottleneck > 9
    && String.sub v.Obs.Report.bottleneck 0 9 = "sync-cond");
  (* Authoritative stall totals override flight-derived ones. *)
  let v' = Obs.Report.of_flight ~wall_ns:10000. ~blocked:[ ("barrier", 9000.) ] fl in
  Alcotest.(check bool) "?blocked overrides dominance" true
    (v'.Obs.Report.dominant_stall = Some Obs.Cause.Barrier_wait);
  let doc = parse_json (Obs.Report.to_json v) in
  Alcotest.(check string) "json dominant" "sync-cond"
    (str_of (member "dominant_stall" doc));
  Alcotest.(check (float 1e-9)) "json stall_by_cause" 5000.
    (num_of (member "sync-cond" (member "stall_by_cause" doc)));
  (* An idle recording blames compute, not a stall. *)
  let empty = Obs.Flight.create ~capacity:8 ~domains:1 () in
  let ve = Obs.Report.of_flight ~wall_ns:1000. empty in
  Alcotest.(check bool) "no stalls -> no dominant" true
    (ve.Obs.Report.dominant_stall = None);
  Alcotest.(check bool) "no stalls -> compute-bound verdict" true
    (String.length ve.Obs.Report.bottleneck >= 7
    && String.sub ve.Obs.Report.bottleneck 0 7 = "compute")

(* ---- flight-recorder perturbation: recorded native runs bit-identical ---- *)

(* Every registry workload, every natively-supported technique: the run
   with the flight recorder attached must verify against sequential memory
   exactly like the bare run (both compare bit-for-bit against the same
   sequential execution), with identical work accounting.  The sim backend
   must ignore the recorder entirely. *)
let test_flight_off_bit_identical () =
  let native_techniques = [ Cx.Barrier; Cx.Domore; Cx.Speccross ] in
  List.iter
    (fun (wl : Wl.Workload.t) ->
      List.iter
        (fun technique ->
          match Cx.applicable ~backend:`Native technique wl with
          | Error _ -> ()
          | Ok () ->
              let go flight =
                Cx.run_request @@ Cx.Request.make
                  ~backend:(`Native { Cx.native_defaults with Cx.flight })
                  ~input:Wl.Workload.Train ~technique ~threads:2 wl
              in
              let off = go false and on = go true in
              let tag f =
                Printf.sprintf "%s/%s: %s" wl.Wl.Workload.name
                  (Cx.technique_name technique) f
              in
              let nget o f =
                match o.Cx.nrun with
                | Some n -> f n
                | None -> Alcotest.fail (tag "no nrun")
              in
              Alcotest.(check bool) (tag "off verified") true off.Cx.verified;
              Alcotest.(check bool) (tag "on verified") true on.Cx.verified;
              Alcotest.(check int) (tag "tasks")
                (nget off (fun n -> n.Xinv_native.Nrun.tasks))
                (nget on (fun n -> n.Xinv_native.Nrun.tasks));
              Alcotest.(check int) (tag "invocations")
                (nget off (fun n -> n.Xinv_native.Nrun.invocations))
                (nget on (fun n -> n.Xinv_native.Nrun.invocations));
              Alcotest.(check bool) (tag "bare run records nothing") true
                (off.Cx.flight = None);
              Alcotest.(check bool) (tag "recorded run surfaces the flight")
                true
                (match on.Cx.flight with
                | Some fl -> Obs.Flight.total_length fl > 0
                | None -> false))
        native_techniques;
      (* The sim backend has no flight recorder to attach. *)
      let sim =
        Cx.run_request @@ Cx.Request.make ~input:Wl.Workload.Train ~technique:Cx.Barrier ~threads:2 wl
      in
      Alcotest.(check bool)
        (wl.Wl.Workload.name ^ ": sim outcome has no flight")
        true
        (sim.Cx.flight = None && sim.Cx.postmortems = []))
    (Wl.Registry.all ())

(* One request per backend publishes the same counter names, each counted
   once per run from the run's result; on the simulator a barrier crossing
   is one barrier episode, not one per thread. *)
let test_counter_names_both_backends () =
  List.iter
    (fun (name, technique) ->
      let wl = Wl.Registry.find name in
      let go backend =
        let obs = Obs.Recorder.create () in
        let o =
          Cx.run_request
          @@ Cx.Request.make ~backend ~input:Wl.Workload.Train ~obs ~technique ~threads:3 wl
        in
        (o, Obs.Metrics.counters (Obs.Recorder.metrics obs))
      in
      let tag k = Printf.sprintf "%s %s: %s" name (Cx.technique_name technique) k in
      let sim, sim_counters = go (`Sim None) in
      let _, nat_counters = go (`Native Cx.native_defaults) in
      Alcotest.(check bool) (tag "counters published") true (sim_counters <> []);
      Alcotest.(check (list string)) (tag "same counter names")
        (List.sort compare (List.map fst sim_counters))
        (List.sort compare (List.map fst nat_counters));
      match (sim.Cx.run, List.assoc_opt "barrier.crossings" sim_counters) with
      | Some r, Some crossings ->
          Alcotest.(check int) (tag "sim barrier.crossings = barrier episodes")
            r.Xinv_parallel.Run.barrier_episodes crossings
      | Some r, None ->
          Alcotest.(check int) (tag "no crossings counted, none run") 0
            r.Xinv_parallel.Run.barrier_episodes
      | None, _ -> Alcotest.fail "no sim run")
    [
      ("ECLAT", Cx.Domore);
      ("JACOBI", Cx.Speccross_inject 3);
      ("SYMM", Cx.Barrier);
    ]

(* The five barrier-separated engines share one invocation loop, so each
   reports its barrier episodes as crossings and the time threads spent
   blocked at them. *)
let test_barrier_engines_report_barriers () =
  let wl = Wl.Registry.find "SYMM" in
  List.iter
    (fun technique ->
      let obs = Obs.Recorder.create () in
      let o =
        Cx.run_request
        @@ Cx.Request.make ~input:Wl.Workload.Train ~obs ~technique ~threads:4 wl
      in
      let tag k = Printf.sprintf "SYMM %s: %s" (Cx.technique_name technique) k in
      match (o.Cx.run, Cx.report ~obs o) with
      | Some r, Some rep ->
          Alcotest.(check (option int)) (tag "barrier.crossings = barrier episodes")
            (Some r.Xinv_parallel.Run.barrier_episodes)
            (List.assoc_opt "barrier.crossings" rep.Obs.Report.counters);
          Alcotest.(check bool) (tag "barrier stall > 0") true
            (List.assoc Obs.Cause.Barrier_wait rep.Obs.Report.stall_by_cause > 0.)
      | _ -> Alcotest.fail (tag "no sim run or report"))
    [ Cx.Barrier; Cx.Doacross; Cx.Dswp; Cx.Inspector; Cx.Tls ]

let suite =
  [
    Alcotest.test_case "metrics counter" `Quick test_metrics_counter;
    Alcotest.test_case "metrics gauge" `Quick test_metrics_gauge;
    Alcotest.test_case "metrics histogram" `Quick test_metrics_histogram;
    Alcotest.test_case "recorder order" `Quick test_recorder_order;
    Alcotest.test_case "perfetto export" `Quick test_perfetto_export;
    Alcotest.test_case "report contents" `Quick test_report_contents;
    Alcotest.test_case "misspeculation report" `Quick test_misspec_report;
    Alcotest.test_case "obs off/on bit-identical" `Slow test_obs_off_bit_identical;
    Alcotest.test_case "flight ring wraparound" `Quick test_flight_wraparound;
    Alcotest.test_case "one report on both backends" `Quick
      test_one_report_both_backends;
    Alcotest.test_case "stall_by_cause is blocked time" `Quick
      test_stall_by_cause_blocked;
    Alcotest.test_case "native rally stays rally" `Quick test_native_rally_kept;
    Alcotest.test_case "percentiles are nearest rank" `Quick
      test_percentile_nearest_rank;
    Alcotest.test_case "snapshot and openmetrics" `Quick test_snapshot_openmetrics;
    Alcotest.test_case "critical path synthetic" `Quick test_critpath_synthetic;
    Alcotest.test_case "flight off/on bit-identical" `Slow
      test_flight_off_bit_identical;
    Alcotest.test_case "same counter names on both backends" `Quick
      test_counter_names_both_backends;
    Alcotest.test_case "barrier engines report their barriers" `Quick
      test_barrier_engines_report_barriers;
  ]
