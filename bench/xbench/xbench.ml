(* xbench: the benchmark every performance claim about this repository is
   measured with.  See README.md in this directory for the workloads, the
   metrics and how to compare two runs.

     xbench --workload W --seed S [--seconds N] [--trace 0|1] [--json OUT]
     xbench [--workload all] --runs N [--sets K] --json OUT
     xbench --compare BASE.json NEW.json
     xbench --smoke

   One workload runs in this process and ends with one JSON line:
   {"correct", "attempted", "failed", "metrics"} holding the end-to-end
   metrics, or with [--trace 1] the per-layer ones.  Several workloads or
   runs each run in a child process of their own, so that every run's peak
   RSS is its own. *)

module H = Harness
module J = Json

(* ---- the machine ---- *)

let read_file path =
  try Some (In_channel.with_open_bin path In_channel.input_all)
  with Sys_error _ -> None

let line_value ~prefix text =
  List.find_map
    (fun l ->
      if String.starts_with ~prefix l then
        match String.index_opt l ':' with
        | Some i -> Some (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
        | None -> None
      else None)
    (String.split_on_char '\n' text)

(* CPUs this process may run on: the affinity mask, as nproc reports it. *)
let nproc () =
  let count list =
    List.fold_left
      (fun n part ->
        match String.split_on_char '-' (String.trim part) with
        | [ a; b ] -> n + int_of_string b - int_of_string a + 1
        | [ a ] when a <> "" -> n + 1
        | _ -> n)
      0 (String.split_on_char ',' list)
  in
  match Option.bind (read_file "/proc/self/status") (line_value ~prefix:"Cpus_allowed_list") with
  | Some l -> ( try count l with _ -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

let cpu_model () =
  Option.value ~default:"unknown"
    (Option.bind (read_file "/proc/cpuinfo") (line_value ~prefix:"model name"))

let git_head () =
  let trim = Option.map String.trim in
  match trim (read_file ".git/HEAD") with
  | Some h when String.starts_with ~prefix:"ref: " h -> (
      let r = String.sub h 5 (String.length h - 5) in
      match trim (read_file (Filename.concat ".git" r)) with
      | Some sha -> sha
      | None ->
          Option.value ~default:"unknown"
            (Option.bind (read_file ".git/packed-refs") (fun packed ->
                 List.find_map
                   (fun l ->
                     match String.split_on_char ' ' l with
                     | [ sha; name ] when name = r -> Some sha
                     | _ -> None)
                   (String.split_on_char '\n' packed))))
  | Some sha -> sha
  | None -> "unknown"

let machine ~seed ~domains =
  let np = nproc () in
  if domains > np then
    Printf.eprintf "xbench: warning: %d domains in use on %d CPUs\n%!" domains np;
  J.Obj
    [
      ("nproc", J.Num (float_of_int np));
      ("recommended_domain_count", J.Num (float_of_int (Domain.recommended_domain_count ())));
      ("cpu_model", J.Str (cpu_model ()));
      ("ocaml_version", J.Str Sys.ocaml_version);
      ("git_head", J.Str (git_head ()));
      ("seed", J.Num (float_of_int seed));
      ("domains", J.Num (float_of_int domains));
    ]

(* ---- BENCHMARK.json ---- *)

type spec = { e2e : (string * string * float) list; (* name, better, bound *) layer : string list }

let load_spec path =
  let j = J.of_file path in
  {
    e2e =
      List.map
        (fun m ->
          ( J.to_str (J.member "name" m),
            J.to_str (J.member "better" m),
            J.to_num (J.member "bound" m) ))
        (J.to_list (J.member "end_to_end" j));
    layer = List.map (fun m -> J.to_str (J.member "name" m)) (J.to_list (J.member "per_layer" j));
  }

let spec_opt path = try Some (load_spec path) with Sys_error _ | J.Parse_error _ -> None

(* ---- results ---- *)

(* Result files hold sets of runs; each (set, workload, metric) keeps every
   run's value with its median and quartiles.  One run is a set of one. *)
let metric_json ~unit_ ~stat values =
  let q1, q3 = Sample.quartiles values in
  J.Obj
    [
      ("unit", J.Str unit_);
      ("stat", J.Str stat);
      ("values", J.Arr (List.map (fun v -> J.Num v) values));
      ("median", J.Num (Sample.median values));
      ("q1", J.Num q1);
      ("q3", J.Num q3);
      ("spread", J.Num (Sample.spread values));
    ]

type run = {
  r_metrics : H.metric list;
  r_extras : H.metric list;
  r_attempted : int;
  r_failed : int;
  r_failures : string list;
}

let run_json r =
  J.Obj
    [
      ("attempted", J.Num (float_of_int r.r_attempted));
      ("failed", J.Num (float_of_int r.r_failed));
      ("failures", J.Arr (List.map (fun s -> J.Str s) r.r_failures));
      ( "metrics",
        J.Obj
          (List.map
             (fun (m : H.metric) -> (m.H.name, metric_json ~unit_:m.H.unit_ ~stat:m.H.stat [ m.H.value ]))
             (r.r_metrics @ r.r_extras)) );
    ]

let result_json ~machine ~seconds ~trace sets =
  J.Obj
    [
      ("schema", J.Str "xbench/1");
      ("machine", machine);
      ("seconds", J.Num seconds);
      ("trace", J.Bool trace);
      ("sets", J.Arr (List.map (fun ws -> J.Obj [ ("workloads", J.Obj ws) ]) sets));
    ]

let print_metrics ms =
  List.iter
    (fun (m : H.metric) ->
      Printf.printf "  %-32s %14.6g %-6s %s\n" m.H.name m.H.value m.H.unit_ m.H.stat)
    ms

(* The last line of a single run: what a benchmark runner reads. *)
let final_line r =
  J.to_string
    (J.Obj
       [
         ("correct", J.Bool (r.r_failures = []));
         ("attempted", J.Num (float_of_int r.r_attempted));
         ("failed", J.Num (float_of_int r.r_failed));
         ( "metrics",
           J.Obj
             (List.map
                (fun (m : H.metric) ->
                  (m.H.name, J.Obj [ ("value", J.Num m.H.value); ("unit", J.Str m.H.unit_) ]))
                r.r_metrics) );
       ])

(* ---- one workload, in this process ---- *)

let run_dir out = Filename.concat out (Printf.sprintf "run-%d" (Unix.getpid ()))

let trace_file out name seed = Filename.concat out (Printf.sprintf "trace-%s-%d.json" name seed)

let run_workload ?(small = false) ?(setups = 5) ~name ~seed ~seconds ~trace ~out
    ?trace_out () =
  let w = H.find ~small ~seed name in
  let dir = run_dir out in
  H.mkdir_p dir;
  Fun.protect
    ~finally:(fun () -> H.rm_rf dir)
    (fun () ->
      if not trace then
        let e = H.e2e w ~seed ~seconds ~setups ~dir in
        ( {
            r_metrics = e.H.metrics;
            r_extras = e.H.extras;
            r_attempted = e.H.attempted;
            r_failed = e.H.failed;
            r_failures = e.H.failures;
          },
          w,
          e.H.pool_creates,
          None )
      else
        let t = H.traced w ~seed ~seconds ~dir in
        let path = Option.value trace_out ~default:(trace_file out name seed) in
        J.to_file path (Trace.to_json t.H.tr);
        ( {
            r_metrics = t.H.layer_metrics;
            r_extras = t.H.layer_extras;
            r_attempted = t.H.t_attempted;
            r_failed = t.H.t_failed;
            r_failures = t.H.t_failures;
          },
          w,
          t.H.t_pool_creates,
          Some (t.H.tr, path) ))

let single ~name ~seed ~seconds ~trace ~out ~trace_out ~json =
  let r, w, _, traced =
    run_workload ~name ~seed ~seconds ~trace ~out ?trace_out ()
  in
  let m = machine ~seed ~domains:w.H.domains in
  Printf.printf "xbench %s: seed %d, %g s, tracing %s\n  machine %s\n" name seed seconds
    (if trace then "on" else "off")
    (J.to_string m);
  print_metrics (r.r_metrics @ r.r_extras);
  (match traced with
  | Some (tr, path) ->
      Printf.printf "  trace: %s\n" path;
      Trace.print_table tr
  | None -> ());
  List.iter (fun f -> Printf.printf "  FAILED %s\n" f) r.r_failures;
  Option.iter
    (fun out -> J.to_file out (result_json ~machine:m ~seconds ~trace [ [ (name, run_json r) ] ]))
    json;
  print_endline (final_line r);
  if r.r_failures <> [] then exit 1

(* ---- several runs, each in a child process ---- *)

let child ~name ~seed ~seconds ~trace ~out =
  let tmp = Filename.concat out (Printf.sprintf "child-%d-%s-%d.json" (Unix.getpid ()) name seed) in
  let log = Unix.openfile (tmp ^ ".log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let args =
    [| Sys.executable_name; "--workload"; name; "--seed"; string_of_int seed; "--seconds";
       Printf.sprintf "%g" seconds; "--trace"; (if trace then "1" else "0"); "--out"; out;
       "--json"; tmp |]
  in
  let pid = Unix.create_process Sys.executable_name args Unix.stdin log Unix.stderr in
  Unix.close log;
  let _, status = Unix.waitpid [] pid in
  let result = try Some (J.of_file tmp) with Sys_error _ | J.Parse_error _ -> None in
  (try Sys.remove tmp with Sys_error _ -> ());
  match (status, result) with
  | Unix.WEXITED 0, Some j ->
      Sys.remove (tmp ^ ".log");
      Ok j
  | _ ->
      Printf.eprintf "xbench: %s seed %d failed; its output is in %s.log\n%!" name seed tmp;
      Error result

(* Values of [metric] for [workload] in a result's set [set] (every set when
   [set] is [None]). *)
let values ?set j workload metric =
  List.concat
    (List.mapi
       (fun i s ->
         if set <> None && set <> Some i then []
         else
           List.map J.to_num
             (J.to_list
                (J.member "values"
                   (J.member metric (J.member "metrics" (J.member workload (J.member "workloads" s)))))))
       (J.to_list (J.member "sets" j)))

(* One workload's runs merged into one result entry: every metric keeps
   all the runs' values. *)
let merge_runs rs =
  let metric m =
    let of_run r = J.member m (J.member "metrics" r) in
    let first = of_run (List.hd rs) in
    metric_json ~unit_:(J.to_str (J.member "unit" first)) ~stat:(J.to_str (J.member "stat" first))
      (List.concat_map (fun r -> List.map J.to_num (J.to_list (J.member "values" (of_run r)))) rs)
  in
  let names = match rs with [] -> [] | r :: _ -> List.map fst (J.to_assoc (J.member "metrics" r)) in
  let sum key = List.fold_left (fun a r -> a +. J.to_num (J.member key r)) 0. rs in
  J.Obj
    [
      ("attempted", J.Num (sum "attempted"));
      ("failed", J.Num (sum "failed"));
      ("metrics", J.Obj (List.map (fun m -> (m, metric m)) names));
    ]

(* Prints each set's median and spread next to the metric's bound, and
   returns the spreads above their bound (setup_s's excepted) and the sets
   whose median is worse than the first set's by more than the bound. *)
let check_sets doc ~names ~sets ~bench =
  let problems = ref [] in
  let flag fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  List.iter
    (fun name ->
      Printf.printf "%s\n" name;
      let first = List.hd (J.to_list (J.member "sets" doc)) in
      List.iter
        (fun (metric, _) ->
          let per_set = List.init sets (fun set -> values ~set doc name metric) in
          Printf.printf "  %-32s" metric;
          List.iter
            (fun vs ->
              Printf.printf " %12.6g (IQR %5.1f%%)" (Sample.median vs) (100. *. Sample.spread vs))
            per_set;
          (match List.find_opt (fun (n, _, _) -> n = metric) bench.e2e with
          | Some (_, better, b) ->
              Printf.printf "  bound %g%%" (100. *. b);
              let m0 = Sample.median (List.hd per_set) in
              List.iteri
                (fun i vs ->
                  let spread = Sample.spread vs and m1 = Sample.median vs in
                  let worse = (if better = "higher" then m0 -. m1 else m1 -. m0) /. m0 in
                  if metric <> "setup_s" && spread > b then
                    flag "%s %s: set %d spread %.1f%% > bound" name metric (i + 1) (100. *. spread);
                  if worse > b then
                    flag "%s %s: set %d median %.1f%% worse than set 1" name metric (i + 1)
                      (100. *. worse))
                per_set
          | None -> ());
          print_newline ())
        (J.to_assoc (J.member "metrics" (J.member name (J.member "workloads" first)))))
    names;
  List.rev !problems

let orchestrate ~names ~seed ~runs ~sets ~seconds ~trace ~out ~json ~bench =
  let failed = ref [] in
  let run_one ~set name i =
    let seed = seed + (set * runs) + i in
    Printf.eprintf "xbench: set %d, %s, seed %d\n%!" (set + 1) name seed;
    let entry j = J.member name (J.member "workloads" (List.hd (J.to_list (J.member "sets" j)))) in
    match child ~name ~seed ~seconds ~trace ~out with
    | Ok j -> Some (entry j)
    | Error r ->
        failed := Printf.sprintf "%s seed %d" name seed :: !failed;
        Option.map entry r
  in
  let sets_json =
    List.init sets (fun set ->
        List.map
          (fun name -> (name, merge_runs (List.filter_map (run_one ~set name) (List.init runs Fun.id))))
          names)
  in
  let domains = List.fold_left (fun d n -> max d (H.find ~seed n).H.domains) 0 names in
  let doc = result_json ~machine:(machine ~seed ~domains) ~seconds ~trace sets_json in
  Option.iter (fun out -> J.to_file out doc) json;
  Printf.printf "xbench: %d set(s) of %d run(s), %g s each, tracing %s\n" sets runs seconds
    (if trace then "on" else "off");
  let problems = check_sets doc ~names ~sets ~bench in
  List.iter (Printf.printf "FAILED %s\n") (List.rev !failed);
  List.iter (Printf.printf "OUT OF BOUND %s\n") problems;
  if !failed <> [] || problems <> [] then exit 1

(* ---- compare two result files ---- *)

let compare ~bench base_path new_path =
  let base = J.of_file base_path and next = J.of_file new_path in
  let workloads j =
    List.concat_map (fun s -> List.map fst (J.to_assoc (J.member "workloads" s))) (J.to_list (J.member "sets" j))
    |> List.sort_uniq String.compare
  in
  let worse = ref 0 in
  Printf.printf "%-13s %-24s %12s %12s %8s  %s\n" "workload" "metric" "base" "new" "change"
    "verdict";
  List.iter
    (fun w ->
      if List.mem w (workloads base) then
        List.iter
          (fun (metric, better, bound) ->
            let b = values base w metric and n = values next w metric in
            if b <> [] && n <> [] then begin
              let bm = Sample.median b and nm = Sample.median n in
              let higher = better = "higher" in
              let worse_by = if higher then (bm -. nm) /. bm else (nm -. bm) /. bm in
              let beats x y = if higher then x > y else x < y in
              let spread = Float.max (Sample.spread b) (Sample.spread n) in
              let verdict =
                if spread > bound then
                  if List.for_all (fun x -> List.for_all (beats x) b) n then "better"
                  else "unresolved"
                else if worse_by > bound then "worse"
                else if -.worse_by > bound then "better"
                else "unchanged"
              in
              if verdict = "worse" then incr worse;
              Printf.printf "%-13s %-24s %12.6g %12.6g %+7.1f%%  %s (bound %g%%, spread %.1f%%)\n" w
                metric bm nm
                (100. *. (nm -. bm) /. bm)
                verdict (100. *. bound) (100. *. spread)
            end)
          bench.e2e)
    (workloads next);
  if !worse > 0 then begin
    Printf.printf "%d regression(s) beyond a BENCHMARK.json bound\n" !worse;
    exit 1
  end

(* ---- smoke test ---- *)

(* Every workload at its smallest, with and without tracing: every metric
   BENCHMARK.json names is emitted and finite, nothing fails, the trace
   parses and its spans plus residuals sum to each request, and each serve
   workload created exactly one pool. *)
let smoke ~bench ~out =
  let out = Filename.concat out (Printf.sprintf "smoke-%d" (Unix.getpid ())) in
  H.mkdir_p out;
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let same_names what want (ms : H.metric list) =
    let got = List.map (fun (m : H.metric) -> m.H.name) ms in
    List.iter (fun n -> if not (List.mem n got) then fail "%s: %s not emitted" what n) want;
    List.iter (fun n -> if not (List.mem n want) then fail "%s: %s not in BENCHMARK.json" what n) got;
    List.iter
      (fun (m : H.metric) -> if not (Float.is_finite m.H.value) then fail "%s: %s = %g" what m.H.name m.H.value)
      ms
  in
  Fun.protect
    ~finally:(fun () -> H.rm_rf out)
    (fun () ->
      List.iter
        (fun name ->
          let t0 = Unix.gettimeofday () in
          List.iter
            (fun trace ->
              let what = Printf.sprintf "%s%s" name (if trace then " traced" else "") in
              let r, w, pools, traced =
                run_workload ~small:true ~setups:1 ~name ~seed:1 ~seconds:0. ~trace ~out ()
              in
              List.iter (fun f -> fail "%s: %s" what f) r.r_failures;
              same_names what
                (if trace then bench.layer else List.map (fun (n, _, _) -> n) bench.e2e)
                r.r_metrics;
              if w.H.serve && pools <> 1 then fail "%s: %d pools created" what pools;
              match traced with
              | None -> ()
              | Some (_, path) -> (
                  match J.of_file path with
                  | exception J.Parse_error e -> fail "%s: trace does not parse: %s" what e
                  | j ->
                      let events = J.to_list (J.member "traceEvents" j) in
                      let arg k e = J.to_num (J.member k (J.member "args" e)) in
                      let spans = List.filter (fun e -> J.member "ph" e = J.Str "X") events in
                      let roots = List.filter (fun e -> arg "parent" e < 0.) spans in
                      if roots = [] then fail "%s: trace has no requests" what;
                      List.iter
                        (fun root ->
                          let covered =
                            List.fold_left
                              (fun a e ->
                                if arg "parent" e = arg "id" root && J.member "path" (J.member "args" e) = J.Bool true
                                then a +. J.to_num (J.member "dur" e)
                                else a)
                              0. spans
                          in
                          let total = covered +. arg "residual_us" root in
                          let d = J.to_num (J.member "dur" root) in
                          if Float.abs (total -. d) > 0.01 *. float_of_int (List.length spans) +. 0.01 then
                            fail "%s: request %g spans + residual %g us <> wall %g us" what
                              (arg "req" root) total d)
                        roots))
            [ false; true ];
          Printf.printf "xbench smoke: %s %.1f s\n%!" name (Unix.gettimeofday () -. t0))
        H.names);
  match !problems with
  | [] -> print_endline "xbench smoke: ok"
  | ps ->
      List.iter (Printf.printf "xbench smoke FAIL: %s\n") (List.rev ps);
      exit 1

(* ---- daemon ---- *)

(* The serve-socket daemon: [Server.default_config] with one pool domain,
   cache off, as [xinv serve] runs.  It exits when its parent goes away, so
   a killed benchmark cannot leave it behind. *)
let daemon socket =
  let srv = Xinv_serve.Server.create { Xinv_serve.Server.default_config with domains = 1 } in
  let parent = Unix.getppid () in
  ignore
    (Thread.create
       (fun () ->
         while true do
           Thread.delay 0.2;
           if Unix.getppid () <> parent then Unix._exit 2
         done)
       ());
  Xinv_serve.Server.serve srv ~socket

(* ---- command line ---- *)

let () =
  let workload = ref "all" and seed = ref 1 and seconds = ref 25. and trace = ref 0 in
  let json = ref None and trace_out = ref None and out = ref "bench/xbench/out" in
  let runs = ref 1 and sets = ref 1 and bench_path = ref "BENCHMARK.json" in
  let mode = ref `Run and base = ref "" and next = ref "" in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "W  one of " ^ String.concat ", " H.names ^ ", or all");
      ("--seed", Arg.Set_int seed, "N  request order, tenants, priorities, misspeculation epoch");
      ("--seconds", Arg.Set_float seconds, "S  measured time per run (default 25)");
      ("--trace", Arg.Set_int trace, "0|1  1: traced pass, per-layer metrics");
      ("--trace-out", Arg.String (fun s -> trace_out := Some s), "FILE  trace JSON path");
      ("--json", Arg.String (fun s -> json := Some s), "OUT  write the full result");
      ("--out", Arg.Set_string out, "DIR  scratch and trace directory (default bench/xbench/out)");
      ("--runs", Arg.Set_int runs, "N  runs per workload, seeds S, S+1, ...");
      ("--sets", Arg.Set_int sets, "K  sets of runs");
      ("--benchmark", Arg.Set_string bench_path, "FILE  BENCHMARK.json (bounds, metric names)");
      ( "--compare",
        Arg.Tuple [ Arg.Set_string base; Arg.String (fun s -> next := s; mode := `Compare) ],
        "BASE NEW  verdict per workload and metric" );
      ("--smoke", Arg.Unit (fun () -> mode := `Smoke), "  every workload at its smallest, checked");
      ("--serve-daemon", Arg.String (fun s -> mode := `Daemon s), "SOCKET  (internal)");
    ]
  in
  let usage = "xbench [options]" in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let die msg =
    prerr_endline ("xbench: " ^ msg);
    exit 2
  in
  let bench () =
    match spec_opt !bench_path with Some b -> b | None -> die ("cannot read " ^ !bench_path)
  in
  match !mode with
  | `Daemon socket -> daemon socket
  | `Compare -> compare ~bench:(bench ()) !base !next
  | `Smoke -> smoke ~bench:(bench ()) ~out:!out
  | `Run ->
      let names = if !workload = "all" then H.names else [ !workload ] in
      if not (List.for_all (fun n -> List.mem n H.names) names) then
        die ("unknown workload " ^ !workload);
      if !trace <> 0 && !trace <> 1 then die "--trace takes 0 or 1";
      if !runs < 1 || !sets < 1 then die "--runs and --sets take a positive count";
      H.mkdir_p !out;
      if List.length names = 1 && !runs = 1 && !sets = 1 then
        single ~name:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~out:!out
          ~trace_out:!trace_out ~json:!json
      else
        orchestrate ~names ~seed:!seed ~runs:!runs ~sets:!sets ~seconds:!seconds
          ~trace:(!trace = 1) ~out:!out ~json:!json
          ~bench:(Option.value (spec_opt !bench_path) ~default:{ e2e = []; layer = [] })
