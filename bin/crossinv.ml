(* crossinv: command-line driver for the cross-invocation parallelization
   library.  Subcommands: list, run, experiment, all, profile. *)

module Cx = Xinv_core.Crossinv
module Wl = Xinv_workloads
module Exp = Xinv_experiments.Experiments

open Cmdliner

let workload_conv =
  let parse s =
    match Wl.Registry.find s with
    | wl -> Ok wl
    | exception Invalid_argument _ ->
        Error
          (`Msg
            (Printf.sprintf "unknown workload %s (available: %s)" s
               (String.concat ", " (Wl.Registry.names ()))))
  in
  Arg.conv (parse, fun ppf (wl : Wl.Workload.t) -> Format.fprintf ppf "%s" wl.Wl.Workload.name)

let technique_conv =
  let parse s =
    match Cx.technique_of_string s with
    | Some t -> Ok t
    | None -> Error (`Msg (Printf.sprintf "unknown technique %s" s))
  in
  Arg.conv (parse, fun ppf t -> Format.fprintf ppf "%s" (Cx.technique_name t))

let input_conv =
  let parse s =
    match Wl.Workload.input_of_string s with
    | Some i -> Ok i
    | None -> Error (`Msg (Printf.sprintf "unknown input %s (train|ref|ref-spec)" s))
  in
  Arg.conv (parse, fun ppf i -> Format.fprintf ppf "%s" (Wl.Workload.input_name i))

let threads_arg =
  Arg.(value & opt int 24 & info [ "t"; "threads" ] ~docv:"N" ~doc:"Simulated cores.")

let input_arg =
  Arg.(
    value
    & opt input_conv Wl.Workload.Ref
    & info [ "i"; "input" ] ~docv:"INPUT" ~doc:"Input set: train, ref or ref-spec.")

(* ---- list ---- *)

let list_cmd =
  let run () =
    print_endline "Workloads:";
    List.iter
      (fun (wl : Wl.Workload.t) ->
        Printf.printf "  %-16s (%s, %s)\n" wl.Wl.Workload.name wl.Wl.Workload.suite
          wl.Wl.Workload.func)
      (Wl.Registry.all ());
    print_endline "\nExperiments:";
    List.iter
      (fun (e : Exp.t) -> Printf.printf "  %-8s %s\n" e.Exp.id e.Exp.title)
      Exp.all;
    let techs backend =
      String.concat ", " (List.map Cx.technique_name (Cx.supported ~backend))
    in
    Printf.printf "\nTechniques (sim backend):    %s\n" (techs `Sim);
    Printf.printf "Techniques (native backend): %s\n" (techs `Native)
  in
  Cmd.v (Cmd.info "list" ~doc:"List workloads, experiments and techniques.")
    Term.(const run $ const ())

(* ---- run ---- *)

let tech_arg =
  Arg.(
    value
    & opt technique_conv Cx.Domore
    & info [ "x"; "technique"; "k" ] ~docv:"TECH" ~doc:"Parallelization technique.")

let backend_arg =
  Arg.(
    value
    & opt (enum [ ("sim", `Sim); ("native", `Native) ]) `Sim
    & info [ "backend" ] ~docv:"BACKEND"
        ~doc:
          "Execution backend: $(b,sim) (simulated multicore, virtual time) or \
           $(b,native) (real OCaml domains, wall-clock time).")

let domains_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Real domains for the native backend; alias for $(b,--threads) under \
           $(b,--backend native).")

let run_threads_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "t"; "threads" ] ~docv:"N"
        ~doc:
          "Execution contexts: simulated cores (default 24) or real domains \
           (default 4).")

let fault_conv =
  let parse s =
    match Xinv_native.Fault.spec_of_string s with
    | Ok sp -> Ok sp
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv
    ( parse,
      fun ppf sp -> Format.fprintf ppf "%s" (Xinv_native.Fault.spec_to_string sp) )

let inject_arg =
  Arg.(
    value
    & opt (some fault_conv) None
    & info [ "inject" ] ~docv:"FAULTSPEC"
        ~doc:
          "Arm one fault on the native backend: $(b,raise@D:S), $(b,stall@D:S) or \
           $(b,poison@D:S) with $(i,D) a domain index or $(b,*); \
           $(b,sched-die@S); $(b,checker-die@S); or $(b,rand:SEED).")

let deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:"Overall native-run deadline in milliseconds, degradation included.")

let no_degrade_arg =
  Arg.(
    value & flag
    & info [ "no-degrade" ]
        ~doc:
          "On a native failure, raise the typed error instead of retrying under \
           a weaker technique.")

let grain_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "grain" ] ~docv:"N"
        ~doc:
          (Printf.sprintf
             "Native chunk size: iterations dispatched/distributed as one \
              block (barrier block-cyclic blocks, DOMORE chunk frames, \
              SPECCROSS speculative blocks).  Default %d reproduces the \
              per-iteration protocols exactly."
             Cx.native_defaults.Cx.grain))

let batch_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "batch" ] ~docv:"N"
        ~doc:
          (Printf.sprintf
             "Native write-combining factor: queue words per atomic publish \
              in the DOMORE scheduler (default %d); 1 publishes per word like \
              the unbatched protocol."
             Cx.native_defaults.Cx.batch))

let cache_mode_arg =
  Arg.(
    value
    & opt (enum [ ("off", `Off); ("ro", `Ro); ("rw", `Rw) ]) `Off
    & info [ "cache" ] ~docv:"MODE"
        ~doc:
          "Incremental analysis cache: $(b,off) (default), $(b,ro) (reuse \
           stored analyses, never write) or $(b,rw) (reuse and publish fresh \
           analyses).")

let cache_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:
          "Analysis-cache directory (default $(b,\\$XDG_CACHE_HOME/xinv) or \
           $(b,~/.cache/xinv)).")

let flight_arg =
  Arg.(
    value & flag
    & info [ "flight" ]
        ~doc:
          "Attach the native flight recorder: per-domain ring buffers of \
           dispatch/sync/barrier/commit/stall events with bounded overhead.  \
           Implied by $(b,--postmortem-dir).")

let postmortem_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "postmortem-dir" ] ~docv:"DIR"
        ~doc:
          "Dump a text postmortem plus a Perfetto trace of the flight \
           recording into $(i,DIR) for every failed native attempt (injected \
           fault, watchdog stall, worker exception), whether it degrades or \
           escapes.")

let policy_arg =
  Arg.(
    value
    & opt (enum [ ("fixed", `Fixed); ("auto", `Auto) ]) `Fixed
    & info [ "policy" ] ~docv:"POLICY"
        ~doc:
          "Where the run's configuration comes from: $(b,fixed) (the flags on \
           this command line, the default) or $(b,auto) (a tuned policy that \
           $(b,xinv tune) stored in the analysis cache — the daemon's, for \
           $(b,submit) — falling back to the flags on a miss; requires \
           $(b,--cache) $(b,ro) or $(b,rw)).")

(* Invalid numeric arguments are a usage error, distinct from run failures:
   typed one-line message, exit 3. *)
let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "invalid argument: %s\n" msg;
      exit 3)
    fmt

(* The argument checks [run], [stats] and [submit] share; returns the
   thread count ([--domains] wins over [--threads]), defaulting to the 24
   simulated cores of the paper's machine or 4 domains.  [--policy auto]
   reads the analysis cache, so it needs one. *)
let check_run_args ~backend ?(policy = `Fixed) ?(cache = `Off) ?grain ?batch
    ?deadline_ms ?domains threads =
  if policy = `Auto && cache = `Off then
    usage_error "--policy auto requires --cache ro or --cache rw";
  (match domains with
  | Some d when d < 1 -> usage_error "--domains must be >= 1 (got %d)" d
  | _ -> ());
  let threads = if Option.is_some domains then domains else threads in
  (match grain with
  | Some g when g < 1 -> usage_error "--grain must be >= 1 (got %d)" g
  | _ -> ());
  (match batch with
  | Some b when b < 1 -> usage_error "--batch must be >= 1 (got %d)" b
  | _ -> ());
  (match deadline_ms with
  | Some ms when ms <= 0. -> usage_error "--deadline-ms must be > 0 (got %g)" ms
  | _ -> ());
  let threads =
    match threads with
    | Some n -> n
    | None -> ( match backend with `Sim -> 24 | `Native -> 4)
  in
  if threads < 1 then
    usage_error "--threads/--domains must be >= 1 (got %d)" threads;
  threads

(* Refuse an inapplicable technique before anything runs, with the text
   [run_request] raises.  The backend's techniques are listed only when it
   has no engine for this one. *)
let require_applicable ~backend ~threads technique wl =
  match Cx.applicable ~backend ~threads technique wl with
  | Ok () -> ()
  | Error reason ->
      prerr_endline (Cx.refusal ~backend technique wl reason);
      let base = match technique with Cx.Speccross_inject _ -> Cx.Speccross | t -> t in
      let supported = Cx.supported ~backend in
      if not (List.mem base supported) then
        Printf.eprintf "techniques supported on %s: %s\n"
          (match backend with `Sim -> "sim" | `Native -> "native")
          (String.concat ", " (List.map Cx.technique_name supported));
      exit 1

let run_cmd =
  let run wl technique threads input backend domains verbose stats inject
      deadline_ms no_degrade grain batch cache cache_dir flight postmortem_dir
      policy =
    (match (backend, domains) with
    | `Sim, Some _ ->
        prerr_endline
          "--domains only applies to the native backend (use --threads for \
           simulated cores, or add --backend native)";
        exit 1
    | _ -> ());
    if backend = `Sim && (inject <> None || deadline_ms <> None || no_degrade)
    then begin
      prerr_endline
        "--inject, --deadline-ms and --no-degrade only apply to the native \
         backend (add --backend native)";
      exit 1
    end;
    if backend = `Sim && (grain <> None || batch <> None) then begin
      prerr_endline
        "--grain and --batch only apply to the native backend (add --backend \
         native)";
      exit 1
    end;
    if backend = `Sim && (flight || postmortem_dir <> None) then begin
      prerr_endline
        "--flight and --postmortem-dir only apply to the native backend (add \
         --backend native)";
      exit 1
    end;
    let threads =
      check_run_args ~backend ~policy ~cache ?grain ?batch ?deadline_ms ?domains
        threads
    in
    require_applicable ~backend ~threads technique wl;
    let obs = if stats then Some (Xinv_obs.Recorder.create ()) else None in
    let b =
      match backend with
      | `Sim -> `Sim None
      | `Native ->
          `Native
            {
              Cx.native_defaults with
              Cx.fault = inject;
              deadline_ms;
              degrade = not no_degrade;
              grain = Option.value grain ~default:Cx.native_defaults.Cx.grain;
              batch = Option.value batch ~default:Cx.native_defaults.Cx.batch;
              flight;
              postmortem_dir;
            }
    in
    let req =
      Cx.Request.make ~backend:b ~input ~cache ?cache_dir ?obs ~policy ~technique ~threads
        wl
    in
    (* Time the verify baseline and the run warm, not as the process's
       first native runs. *)
    Cx.warm_up req;
    let o =
      (* With --no-degrade (or an exhausted deadline) the native run
         surfaces its typed error; report it instead of a backtrace. *)
      match Cx.run_request req with
      | o -> o
      | exception Xinv_native.Fault.Injected { kind; domain; site } ->
          Printf.eprintf "fault injected: %s at domain %d, site %d\n"
            (Xinv_native.Fault.kind_name kind)
            domain site;
          Option.iter
            (Printf.eprintf "postmortem written under %s\n")
            postmortem_dir;
          exit 3
      | exception Xinv_native.Watchdog.Stalled { role; waiting_for; waited_ns }
        ->
          Printf.eprintf "stalled: %s waited %.1f ms for %s\n" role
            (waited_ns /. 1e6) waiting_for;
          Option.iter
            (Printf.eprintf "postmortem written under %s\n")
            postmortem_dir;
          exit 3
    in
    (* The header names what ran: a cached policy can pin another
       technique, width or backend than the flags asked for.  A
       degradation keeps the technique first attempted here. *)
    let ran =
      match o.Cx.degraded with
      | s :: _ -> s.Cx.d_from
      | [] -> o.Cx.technique
    in
    let width, contexts, ran_backend =
      match (o.Cx.nrun, o.Cx.run) with
      | Some nr, _ -> (nr.Xinv_native.Nrun.domains, "domains", "native")
      | None, Some r -> (r.Xinv_parallel.Run.threads, "threads", "sim")
      | None, None -> (1, "threads", "sim")
    in
    Printf.printf "%s under %s, %d %s (%s backend, input %s):\n"
      wl.Wl.Workload.name (Cx.technique_name ran) width contexts ran_backend
      (Wl.Workload.input_name input);
    Printf.printf "  sequential cost  %s\n"
      (Option.fold ~none:"not measured" ~some:Cx.cost_to_string o.Cx.seq_cost);
    Printf.printf "  cost             %s\n" (Cx.cost_to_string o.Cx.cost);
    Option.iter (Printf.printf "  speedup          %.2fx\n") o.Cx.speedup;
    if o.Cx.policy_source <> "fixed" then
      Printf.printf "  policy source    %s\n" o.Cx.policy_source;
    (match cache with
    | `Off ->
        Printf.printf "  analysis         %.3f ms\n" (o.Cx.analysis_ns /. 1e6)
    | `Ro | `Rw when o.Cx.cache_hits = 0 && o.Cx.cache_misses = 0 ->
        Printf.printf "  analysis         %.3f ms (no cached analysis)\n"
          (o.Cx.analysis_ns /. 1e6)
    | `Ro | `Rw ->
        let status =
          if o.Cx.cache_misses = 0 then "cache hit"
          else if o.Cx.cache_hits = 0 then "cache miss"
          else "cache partial"
        in
        Printf.printf "  analysis         %.3f ms (%s: %d hit, %d miss)\n"
          (o.Cx.analysis_ns /. 1e6)
          status o.Cx.cache_hits o.Cx.cache_misses);
    Printf.printf "  verified         %b\n" o.Cx.verified;
    List.iter
      (fun (s : Cx.degrade_step) ->
        Printf.printf "  degraded         %s -> %s (%s)\n"
          (Cx.technique_name s.Cx.d_from)
          (Cx.technique_name s.Cx.d_to)
          s.Cx.d_reason)
      o.Cx.degraded;
    if o.Cx.degraded <> [] then
      Printf.printf "  executed as      %s\n"
        (Cx.technique_name o.Cx.technique);
    List.iter
      (fun p -> Printf.printf "  postmortem       %s\n" p)
      o.Cx.postmortems;
    (match o.Cx.flight with
    | Some fl ->
        Printf.printf "  flight           %d events recorded, %d dropped\n"
          (Xinv_obs.Flight.total_length fl)
          (Xinv_obs.Flight.total_drops fl)
    | None -> ());
    (match o.Cx.run with
    | Some r when verbose -> Format.printf "  %a@." Xinv_parallel.Run.pp r
    | _ -> ());
    (match o.Cx.nrun with
    | Some nr when verbose -> Format.printf "  %a@." Xinv_native.Nrun.pp nr
    | _ -> ());
    (match o.Cx.profile with
    | Some prof when verbose ->
        Format.printf "  %a@." Xinv_speccross.Profiler.pp prof
    | _ -> ());
    if stats || (verbose && o.Cx.flight <> None) then
      Option.iter (Format.printf "%a@." Xinv_obs.Report.pp) (Cx.report ?obs o);
    if not o.Cx.verified then exit 2
  in
  let wl_arg =
    Arg.(required & pos 0 (some workload_conv) None & info [] ~docv:"WORKLOAD")
  in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Detailed stats.") in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:"Instrument the run and print the observability report.")
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run one workload under one technique and verify the result, on the \
          simulated multicore or on real domains (--backend native), with \
          optional fault injection and deadlines.")
    Term.(
      const run $ wl_arg $ tech_arg $ run_threads_arg $ input_arg $ backend_arg
      $ domains_arg $ verbose $ stats $ inject_arg $ deadline_arg
      $ no_degrade_arg $ grain_arg $ batch_arg $ cache_mode_arg $ cache_dir_arg
      $ flight_arg $ postmortem_dir_arg $ policy_arg)

(* ---- stats ---- *)

let stats_cmd =
  let run wl technique threads input backend domains json csv =
    (match (backend, domains) with
    | `Sim, Some _ ->
        prerr_endline
          "--domains only applies to the native backend (add --backend native)";
        exit 1
    | _ -> ());
    let threads = check_run_args ~backend ?domains threads in
    require_applicable ~backend ~threads technique wl;
    let obs = Xinv_obs.Recorder.create () in
    let b =
      match backend with
      | `Sim -> `Sim None
      | `Native -> `Native { Cx.native_defaults with Cx.flight = true }
    in
    let o =
      Cx.run_request @@ Cx.Request.make ~backend:b ~input ~obs ~technique ~threads wl
    in
    match Cx.report ~obs o with
    | None ->
        Printf.eprintf "sequential execution has no stats\n";
        exit 1
    | Some report ->
        if json then print_string (Xinv_obs.Report.to_json report)
        else if csv then print_string (Xinv_obs.Report.to_csv report)
        else Format.printf "%a@." Xinv_obs.Report.pp report
  in
  let wl_arg =
    Arg.(required & pos 0 (some workload_conv) None & info [] ~docv:"WORKLOAD")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit the $(b,xinv-stats/4) JSON document (the same keys on both \
             backends; $(b,clock) names the time unit).")
  in
  let csv = Arg.(value & flag & info [ "csv" ] ~doc:"Emit key,value CSV.") in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Run one workload instrumented and print the stall/utilization report \
          (text, --json or --csv), on either backend.")
    Term.(
      const run $ wl_arg $ tech_arg $ run_threads_arg $ input_arg $ backend_arg
      $ domains_arg $ json $ csv)

(* ---- top ---- *)

(* One live frame against a flight recorder that is still being written:
   the run's report so far, per domain.  Reads are racy by design —
   Flight.read skips torn slots.  A live run has no totals yet, so
   commits/s counts the epoch commits the rings still hold. *)
let render_frame ~(wl : Wl.Workload.t) ~technique ~frame fl =
  let r = Xinv_obs.Report.of_flight fl in
  let commits =
    List.length
      (List.filter
         (fun e -> e.Xinv_obs.Flight.f_kind = Xinv_obs.Flight.Epoch_commit)
         (Xinv_obs.Flight.entries fl))
  in
  let secs = r.Xinv_obs.Report.makespan /. 1e9 in
  Printf.printf
    "xinv top — %s under %s  |  frame %d  |  %.2f s  |  %d events (%d dropped)\n"
    wl.Wl.Workload.name
    (Cx.technique_name technique)
    frame secs r.Xinv_obs.Report.events_logged r.Xinv_obs.Report.drops;
  Printf.printf "  %-6s %10s %7s  %s\n" "domain" "events" "util%" "dominant stall";
  List.iter
    (fun (tr : Xinv_obs.Report.thread_report) ->
      Printf.printf "  %-6d %10d %6.1f%%  %s\n" tr.Xinv_obs.Report.tid
        tr.Xinv_obs.Report.events
        (100. *. tr.Xinv_obs.Report.utilization)
        (match tr.Xinv_obs.Report.dominant with
        | Some c -> Xinv_obs.Cause.name c
        | None -> "-"))
    r.Xinv_obs.Report.per_thread;
  Printf.printf "  bottleneck: %s\n" r.Xinv_obs.Report.bottleneck;
  (match r.Xinv_obs.Report.queue_occupancy with
  | Some q ->
      Printf.printf "  queue occupancy p50 %.0f  max %.0f\n" q.Xinv_obs.Report.p50
        q.Xinv_obs.Report.pmax
  | None -> ());
  if secs > 0. then
    Printf.printf "  commits/s %.1f\n"
      (float_of_int commits /. secs)

let top_cmd =
  let run wl technique domains interval_ms runs frames openmetrics =
    if domains < 1 || interval_ms < 1 || runs < 1 || frames < 0 then begin
      prerr_endline "--domains, --interval-ms and --runs must be >= 1";
      exit 1
    end;
    require_applicable ~backend:`Native ~threads:domains technique wl;
    let cur = Atomic.make None in
    let finished = Atomic.make false in
    let failure = Atomic.make None in
    let obs = Xinv_obs.Recorder.create () in
    let opts =
      {
        Cx.native_defaults with
        Cx.flight = true;
        on_flight = Some (fun f -> Atomic.set cur (Some f));
      }
    in
    let runner =
      Domain.spawn (fun () ->
        (try
           for _ = 1 to runs do
             ignore
               (Cx.run_request @@ Cx.Request.make ~backend:(`Native opts) ~obs ~technique ~threads:domains
                  wl)
           done
         with e -> Atomic.set failure (Some (Printexc.to_string e)));
        Atomic.set finished true)
    in
    let tty = Unix.isatty Unix.stdout in
    let interval = float_of_int interval_ms /. 1e3 in
    let frame_no = ref 0 in
    let show fl =
      incr frame_no;
      if tty then print_string "\027[H\027[2J";
      if openmetrics then
        print_string
          (Xinv_obs.Snapshot.to_openmetrics
             (Xinv_obs.Snapshot.take (Xinv_obs.Recorder.metrics obs)))
      else render_frame ~wl ~technique ~frame:!frame_no fl;
      flush stdout
    in
    while
      (not (Atomic.get finished)) && (frames = 0 || !frame_no < frames)
    do
      Unix.sleepf interval;
      match Atomic.get cur with None -> () | Some fl -> show fl
    done;
    Domain.join runner;
    (* Always end on a complete frame: short runs may finish between
       refresh ticks, and the last recording is quiesced and consistent. *)
    (match Atomic.get cur with None -> () | Some fl -> show fl);
    match Atomic.get failure with
    | Some msg ->
        Printf.eprintf "runner failed: %s\n" msg;
        exit 3
    | None -> ()
  in
  let wl_arg =
    Arg.(required & pos 0 (some workload_conv) None & info [] ~docv:"WORKLOAD")
  in
  let domains =
    Arg.(
      value & opt int 4
      & info [ "domains" ] ~docv:"N" ~doc:"Real domains for the observed runs.")
  in
  let interval =
    Arg.(
      value & opt int 200
      & info [ "interval-ms" ] ~docv:"MS" ~doc:"Refresh interval (default 200).")
  in
  let runs =
    Arg.(
      value & opt int 10
      & info [ "runs" ] ~docv:"R"
          ~doc:"Back-to-back runs to observe before exiting (default 10).")
  in
  let frames =
    Arg.(
      value & opt int 0
      & info [ "frames" ] ~docv:"K"
          ~doc:
            "Stop after $(i,K) refresh frames (0, the default, refreshes \
             until the runs finish).  A final quiesced frame is always \
             printed.")
  in
  let openmetrics =
    Arg.(
      value & flag
      & info [ "openmetrics" ]
          ~doc:
            "Print an OpenMetrics exposition of the run's metric registry \
             each frame instead of the per-domain table.")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Observe a live native run: periodic per-domain utilization, \
          dominant stall, queue depth and commit rate from the flight \
          recorder (or --openmetrics text exposition).")
    Term.(
      const run $ wl_arg $ tech_arg $ domains $ interval $ runs $ frames
      $ openmetrics)

(* ---- experiment ---- *)

let experiment_cmd =
  let run ids =
    List.iter
      (fun id ->
        match Exp.find id with
        | e ->
            print_endline (e.Exp.render ());
            print_newline ()
        | exception Invalid_argument msg ->
            prerr_endline msg;
            exit 1)
      ids
  in
  let ids = Arg.(non_empty & pos_all string [] & info [] ~docv:"ID") in
  Cmd.v
    (Cmd.info "experiment"
       ~doc:"Regenerate one or more paper figures/tables (e.g. fig5.2 tab5.1).")
    Term.(const run $ ids)

(* ---- all ---- *)

let all_cmd =
  let run () =
    List.iter
      (fun (e : Exp.t) ->
        Printf.printf "==== %s: %s ====\n%!" e.Exp.id e.Exp.title;
        print_endline (e.Exp.render ());
        print_newline ())
      Exp.all
  in
  Cmd.v
    (Cmd.info "all" ~doc:"Regenerate every figure and table of the evaluation.")
    Term.(const run $ const ())

(* ---- profile ---- *)

let profile_cmd =
  let run (wl : Wl.Workload.t) input =
    let env = wl.Wl.Workload.fresh_env input in
    let prof = Xinv_speccross.Profiler.profile (wl.Wl.Workload.program input) env in
    Format.printf "%s (%s input):@.%a@." wl.Wl.Workload.name
      (Wl.Workload.input_name input)
      Xinv_speccross.Profiler.pp prof
  in
  let wl_arg =
    Arg.(required & pos 0 (some workload_conv) None & info [] ~docv:"WORKLOAD")
  in
  Cmd.v
    (Cmd.info "profile" ~doc:"Run the dependence-distance profiler on a workload.")
    Term.(const run $ wl_arg $ input_arg)

(* ---- plan ---- *)

let plan_cmd =
  let run (wl : Wl.Workload.t) dot =
    let program = wl.Wl.Workload.program Wl.Workload.Ref in
    let pdg = Xinv_ir.Pdg.build program in
    if dot then begin
      let part = Xinv_ir.Partition.compute program pdg in
      print_endline (Xinv_ir.Dot.pdg ~partition:part pdg);
      prerr_endline "(DAG-SCC on stderr)";
      prerr_endline (Xinv_ir.Dot.dag_scc pdg)
    end
    else begin
      Printf.printf "inner-loop plan (Table 5.1):
";
      List.iter
        (fun (label, t) ->
          Printf.printf "  %-24s %s
" label (Xinv_parallel.Intra.name t))
        wl.Wl.Workload.plan;
      print_newline ();
      let env = wl.Wl.Workload.fresh_env Wl.Workload.Ref in
      match Xinv_ir.Mtcg.generate program env with
      | Xinv_ir.Mtcg.Inapplicable reason ->
          Printf.printf "DOMORE transformation: inapplicable (%s)
" reason
      | Xinv_ir.Mtcg.Plan plan ->
          Printf.printf "DOMORE transformation (scheduler/worker estimate %.1f%%):

"
            (100. *. plan.Xinv_ir.Mtcg.guard_ratio);
          print_endline (Xinv_ir.Mtcg.render plan)
    end
  in
  let wl_arg =
    Arg.(required & pos 0 (some workload_conv) None & info [] ~docv:"WORKLOAD")
  in
  let dot = Arg.(value & flag & info [ "dot" ] ~doc:"Emit the PDG as Graphviz DOT.") in
  Cmd.v
    (Cmd.info "plan"
       ~doc:"Show the parallelization plan and generated DOMORE code for a workload.")
    Term.(const run $ wl_arg $ dot)

(* ---- trace ---- *)

let trace_cmd =
  let run (wl : Wl.Workload.t) technique threads width out =
    let obs =
      match out with Some _ -> Some (Xinv_obs.Recorder.create ()) | None -> None
    in
    (* The run [xinv run -i train] executes, engine configuration included. *)
    let r =
      match technique with
      | Cx.Barrier | Cx.Domore | Cx.Speccross -> (
          let req =
            Cx.Request.make ~input:Wl.Workload.Train ?obs ~technique ~threads wl
          in
          match Cx.simulate ~trace:true req with
          | r -> Option.get r
          | exception Failure msg ->
              prerr_endline msg;
              exit 1)
      | _ ->
          prerr_endline "trace supports -x barrier, -x domore and -x speccross";
          exit 1
    in
    match out with
    | Some path ->
        let json =
          Xinv_obs.Perfetto.to_json
            ~process_name:
              (Printf.sprintf "crossinv %s %s" wl.Wl.Workload.name
                 (Cx.technique_name technique))
            ~clock:Xinv_obs.Flight.Cycles ~tracks:(Xinv_parallel.Run.tracks r)
            ~segments:(Xinv_sim.Engine.segments r.Xinv_parallel.Run.engine)
            (Xinv_parallel.Run.entries r)
        in
        let oc = open_out path in
        output_string oc json;
        close_out oc;
        Printf.printf "wrote %s (open in https://ui.perfetto.dev or chrome://tracing)\n"
          path
    | None ->
        print_endline
          (Xinv_sim.Trace.render ~width
             (Xinv_sim.Engine.segments r.Xinv_parallel.Run.engine))
  in
  let wl_arg =
    Arg.(required & pos 0 (some workload_conv) None & info [] ~docv:"WORKLOAD")
  in
  let tech_arg =
    Arg.(
      value
      & opt technique_conv Cx.Barrier
      & info [ "x"; "technique"; "k" ] ~docv:"TECH" ~doc:"barrier or speccross.")
  in
  let width =
    Arg.(value & opt int 40 & info [ "rows" ] ~docv:"N" ~doc:"Timeline rows.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Write a Chrome/Perfetto trace_event JSON file instead of the timeline.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Render the execution plan of a (train-scale) run as a timeline, or export \
          it as a Perfetto trace with --out.")
    Term.(const run $ wl_arg $ tech_arg $ threads_arg $ width $ out)

(* ---- tune ---- *)

let tune_cmd =
  let module Tune = Xinv_tune.Tune in
  let module Search = Xinv_tune.Search in
  let run wl budget seed domains_max trial_deadline_ms input cache
      cache_dir json stats =
    if budget < 1 then usage_error "--budget must be >= 1 (got %d)" budget;
    (match domains_max with
    | Some d when d < 1 -> usage_error "--domains-max must be >= 1 (got %d)" d
    | _ -> ());
    (match trial_deadline_ms with
    | Some ms when ms <= 0. ->
        usage_error "--trial-deadline-ms must be > 0 (got %g)" ms
    | _ -> ());
    let obs = if stats then Some (Xinv_obs.Recorder.create ()) else None in
    let r =
      Tune.tune ?obs ~cache ?cache_dir ~input ~budget ~seed
        ?max_domains:domains_max ?trial_deadline_ms wl
    in
    if json then print_string (Tune.report_json r)
    else begin
      let t = r.Tune.tuned in
      Printf.printf "tuned %s (%s input, hill search, seed %d, budget %d):\n"
        r.Tune.workload
        (Wl.Workload.input_name r.Tune.input)
        r.Tune.seed r.Tune.budget;
      Printf.printf "  source           %s%s\n"
        (Tune.source_name r.Tune.source)
        (match r.Tune.source with
        | `Cached -> " (0 search trials this session)"
        | `Searched ->
            Printf.sprintf " (%d trials)" (List.length r.Tune.trials));
      Printf.printf "  best policy      %s\n"
        (Xinv_cache.Policy.key t.Xinv_cache.Policy.policy);
      Printf.printf "  wall             %.3f ms\n"
        (t.Xinv_cache.Policy.wall_ns /. 1e6);
      Printf.printf "  sequential       %.3f ms\n"
        (t.Xinv_cache.Policy.seq_wall_ns /. 1e6);
      if t.Xinv_cache.Policy.wall_ns > 0. then
        Printf.printf "  speedup          %.2fx\n"
          (t.Xinv_cache.Policy.seq_wall_ns /. t.Xinv_cache.Policy.wall_ns);
      List.iter
        (fun (tr : Search.trial) ->
          Printf.printf "  trial %-3d %-52s %s%s\n" tr.Search.t_index
            (Xinv_cache.Policy.key tr.Search.t_policy)
            (if Float.is_finite tr.Search.t_wall_ns then
               Printf.sprintf "%.3f ms" (tr.Search.t_wall_ns /. 1e6)
             else "failed")
            (if tr.Search.t_pruned then " (pruned)"
             else if not tr.Search.t_ok then " (not ok)"
             else ""))
        r.Tune.trials;
      match obs with
      | Some obs when stats ->
          List.iter
            (fun (name, v) -> Printf.printf "  %-32s %d\n" name v)
            (Xinv_obs.Metrics.counters (Xinv_obs.Recorder.metrics obs))
      | _ -> ()
    end
  in
  let wl_arg =
    Arg.(required & pos 0 (some workload_conv) None & info [] ~docv:"WORKLOAD")
  in
  let budget =
    Arg.(
      value & opt int 32
      & info [ "budget" ] ~docv:"N"
          ~doc:"Maximum measured search trials (default 32).")
  in
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"Deterministic search seed (default 42).")
  in
  let domains_max =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains-max" ] ~docv:"N"
          ~doc:
            "Cap the domain-count axis (default: the machine's recommended \
             domain count).")
  in
  let trial_deadline =
    Arg.(
      value
      & opt (some float) None
      & info [ "trial-deadline-ms" ] ~docv:"MS"
          ~doc:
            "Hard per-trial watchdog deadline in milliseconds (default 2000; \
             trials are also cut off at 1.5x the incumbent's wall time).")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the $(b,xinv-tune/1) JSON report.")
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:"Instrument the search and print the tune.* counters.")
  in
  Cmd.v
    (Cmd.info "tune"
       ~doc:
         "Search for the fastest execution policy (backend, technique, \
          domains, grain, batch, signature kind, speculative distance, epoch \
          size) of one workload on this machine, and persist the winner in \
          the analysis cache with --cache rw; a later tune or run --policy \
          auto reuses it with zero search.")
    Term.(
      const run $ wl_arg $ budget $ seed $ domains_max
      $ trial_deadline $ input_arg $ cache_mode_arg $ cache_dir_arg $ json
      $ stats)

(* ---- cache ---- *)

let cache_cmd =
  let module Store = Xinv_cache.Store in
  let resolve dir = Option.value dir ~default:(Store.default_dir ()) in
  let stats_c =
    let run dir =
      let dir = resolve dir in
      let s = Store.stats ~dir in
      Printf.printf "cache directory    %s\n" dir;
      Printf.printf "entries            %d\n" s.Store.s_entries;
      Printf.printf "bytes              %d\n" s.Store.s_bytes;
      Printf.printf "quarantined        %d\n" s.Store.s_quarantined;
      Printf.printf "stale tmp files    %d\n" s.Store.s_tmp
    in
    Cmd.v
      (Cmd.info "stats" ~doc:"Entry count, total size and quarantine count.")
      Term.(const run $ cache_dir_arg)
  in
  let human_bytes n =
    let f = float_of_int n in
    if f >= 1048576. then Printf.sprintf "%.1f MiB" (f /. 1048576.)
    else if f >= 1024. then Printf.sprintf "%.1f KiB" (f /. 1024.)
    else Printf.sprintf "%d B" n
  in
  let ls_c =
    let run dir =
      let dir = resolve dir in
      let entries =
        List.sort
          (fun (a : Store.entry_info) (b : Store.entry_info) ->
            Float.compare a.Store.e_mtime b.Store.e_mtime)
          (Store.ls ~dir)
      in
      List.iter
        (fun (e : Store.entry_info) ->
          (* Components stored per entry: P = SPECCROSS profile,
             T = tuned policy. *)
          let components =
            match open_in_bin (Filename.concat dir (e.Store.e_fp ^ ".xc")) with
            | exception Sys_error _ -> "?"
            | ic -> (
                let raw =
                  try really_input_string ic (in_channel_length ic)
                  with _ -> ""
                in
                close_in_noerr ic;
                match Xinv_cache.Artifact.decode raw with
                | Error reason -> "invalid:" ^ reason
                | Ok a ->
                    String.concat ""
                      [
                        (match a.Xinv_cache.Artifact.profile with
                        | Some _ -> "P"
                        | None -> "-");
                        (match a.Xinv_cache.Artifact.policy with
                        | Some _ -> "T"
                        | None -> "-");
                      ])
          in
          let tm = Unix.localtime e.Store.e_mtime in
          Printf.printf "%s  %10s  %04d-%02d-%02d %02d:%02d:%02d  %s\n"
            e.Store.e_fp
            (human_bytes e.Store.e_bytes)
            (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1) tm.Unix.tm_mday
            tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec components)
        entries;
      let total = List.fold_left (fun n e -> n + e.Store.e_bytes) 0 entries in
      Printf.printf "total: %d %s, %s\n" (List.length entries)
        (if List.length entries = 1 then "entry" else "entries")
        (human_bytes total)
    in
    Cmd.v
      (Cmd.info "ls"
         ~doc:
           "List entries sorted by modification time (oldest first) with \
            human-readable size, timestamp and stored components — P = \
            SPECCROSS profile, T = tuned policy — plus a totals footer.")
      Term.(const run $ cache_dir_arg)
  in
  let clear_c =
    let run dir =
      let dir = resolve dir in
      let n = Store.clear ~dir in
      Printf.printf "removed %d entries from %s\n" n dir
    in
    Cmd.v
      (Cmd.info "clear"
         ~doc:"Remove all entries, quarantined files and stale tmp files.")
      Term.(const run $ cache_dir_arg)
  in
  Cmd.group
    (Cmd.info "cache"
       ~doc:
         "Inspect or clear the incremental analysis cache (see $(b,run \
          --cache)).")
    [ stats_c; ls_c; clear_c ]

(* ---- serve mode: daemon + thin clients ---- *)

module Serve = Xinv_serve.Server
module SReq = Xinv_serve.Request
module Proto = Xinv_serve.Protocol
module SClient = Xinv_serve.Client
module SWire = Xinv_serve.Wire

let default_socket () =
  match Sys.getenv_opt "XDG_RUNTIME_DIR" with
  | Some d when d <> "" -> Filename.concat d "xinv-serve.sock"
  | _ ->
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "xinv-serve-%d.sock" (Unix.getuid ()))

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:
          "Unix-domain socket the daemon listens on (default \
           $(b,\\$XDG_RUNTIME_DIR/xinv-serve.sock), else \
           $(b,<tmpdir>/xinv-serve-<uid>.sock)).")

let resolve_socket s = Option.value s ~default:(default_socket ())

(* One round trip; connection refusals and protocol corruption are client
   errors (exit 1), distinct from the daemon's typed rejections. *)
let client_call socket msg =
  let socket = resolve_socket socket in
  match SClient.call ~socket msg with
  | reply -> reply
  | exception Unix.Unix_error (e, _, _) ->
      Printf.eprintf "cannot reach daemon at %s: %s\n" socket
        (Unix.error_message e);
      exit 1
  | exception SWire.Error e ->
      Printf.eprintf "protocol error talking to %s: %s\n" socket
        (SWire.error_to_string e);
      exit 1

let serve_cmd =
  let run socket domains queue_capacity cache cache_dir default_deadline_ms =
    if domains < 1 then usage_error "--domains must be >= 1 (got %d)" domains;
    if queue_capacity < 1 then
      usage_error "--queue-capacity must be >= 1 (got %d)" queue_capacity;
    (match default_deadline_ms with
    | Some ms when ms <= 0. ->
        usage_error "--default-deadline-ms must be > 0 (got %g)" ms
    | _ -> ());
    let socket = resolve_socket socket in
    let server =
      Serve.create
        { Serve.domains; queue_capacity; cache; cache_dir; default_deadline_ms }
    in
    Printf.printf
      "xinv serve: listening on %s (%d pool domains, queue %d, cache %s)\n%!"
      socket domains queue_capacity
      (match cache with `Off -> "off" | `Ro -> "ro" | `Rw -> "rw");
    Serve.serve server ~socket;
    Printf.printf "xinv serve: shut down after %d requests\n"
      (Serve.served server)
  in
  let domains =
    Arg.(
      value
      & opt int Serve.default_config.Serve.domains
      & info [ "domains" ] ~docv:"N"
          ~doc:"Worker domains in the shared pool, created once at startup.")
  in
  let capacity =
    Arg.(
      value
      & opt int Serve.default_config.Serve.queue_capacity
      & info [ "queue-capacity" ] ~docv:"N"
          ~doc:
            "Admission-control bound: requests beyond $(i,N) queued are \
             rejected with a typed $(b,queue full) reply, never blocked.")
  in
  let default_deadline =
    Arg.(
      value
      & opt (some float) None
      & info [ "default-deadline-ms" ] ~docv:"MS"
          ~doc:
            "End-to-end deadline applied to requests that carry none of \
             their own (queue wait included).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the resident parallelization daemon: one shared domain pool, \
          one analysis-cache configuration and one metrics registry serving \
          run and stats requests from $(b,xinv submit), $(b,xinv ping), \
          $(b,xinv serve-stats) and $(b,xinv shutdown) over a Unix-domain \
          socket ($(b,xinv-serve/1) protocol).")
    Term.(
      const run $ socket_arg $ domains $ capacity $ cache_mode_arg
      $ cache_dir_arg $ default_deadline)

let submit_cmd =
  let sig_arg =
    Arg.(
      value
      & opt
          (some
             (enum
                [
                  ("range", `Range);
                  ("segmented", `Segmented);
                  ("bloom", `Bloom);
                  ("exact", `Exact);
                ]))
          None
      & info [ "sig" ] ~docv:"KIND"
          ~doc:"SPECCROSS signature kind: range, segmented, bloom or exact.")
  in
  let spec_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "spec-distance" ] ~docv:"N"
          ~doc:"SPECCROSS speculative distance (epochs in flight).")
  in
  let priority_arg =
    Arg.(
      value
      & opt (enum [ ("normal", `Normal); ("high", `High) ]) `Normal
      & info [ "priority" ] ~docv:"LEVEL"
          ~doc:
            "Scheduling level: $(b,high) requests run before every queued \
             $(b,normal) one.")
  in
  let tenant_arg =
    Arg.(
      value
      & opt string "default"
      & info [ "tenant" ] ~docv:"NAME"
          ~doc:
            "Fairness cohort: the daemon round-robins across tenants within \
             a priority level and keeps per-tenant counters.")
  in
  let no_verify_arg =
    Arg.(
      value & flag
      & info [ "no-verify" ]
          ~doc:"Skip comparing the parallel run against the oracle.")
  in
  let run socket wl technique threads input backend policy grain batch sig_kind
      spec_distance cache inject deadline_ms priority tenant no_verify =
    let threads =
      check_run_args ~backend ~policy ~cache ?grain ?batch ?deadline_ms threads
    in
    let req =
      SReq.make ~input ~backend
        ~technique:(Cx.technique_name technique)
        ~threads ~policy
        ?grain ?batch ?sig_kind ?spec_distance ~verify:(not no_verify) ~cache
        ?fault:(Option.map Xinv_native.Fault.spec_to_string inject)
        ?deadline_ms ~priority ~tenant
        (`Name wl.Wl.Workload.name)
    in
    match client_call socket (Proto.Run req) with
    | Proto.Outcome s as reply ->
        Format.printf "%a@." Proto.pp_server reply;
        if not s.Proto.o_verified then exit 2
    | Proto.Rejected _ as reply ->
        Format.eprintf "%a@." Proto.pp_server reply;
        exit 1
    | Proto.Failed _ as reply ->
        Format.eprintf "%a@." Proto.pp_server reply;
        exit 1
    | reply ->
        Format.eprintf "unexpected reply: %a@." Proto.pp_server reply;
        exit 1
  in
  let wl_arg =
    Arg.(
      required
      & pos 0 (some workload_conv) None
      & info [] ~docv:"WORKLOAD" ~doc:"Registry workload to run.")
  in
  let submit_deadline =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "End-to-end budget from submission, queue wait included; an \
             expired queued request is rejected, a running one is cut off \
             by the daemon's watchdog.")
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:
         "Submit one run to a resident $(b,xinv serve) daemon and wait for \
          the outcome.  Exit status: 0 verified, 2 completed unverified, 1 \
          rejected/failed/unreachable.")
    Term.(
      const run $ socket_arg $ wl_arg $ tech_arg $ run_threads_arg $ input_arg
      $ backend_arg $ policy_arg $ grain_arg $ batch_arg $ sig_arg
      $ spec_arg $ cache_mode_arg $ inject_arg $ submit_deadline
      $ priority_arg $ tenant_arg $ no_verify_arg)

let ping_cmd =
  let run socket =
    let reply = client_call socket Proto.Ping in
    Format.printf "%a@." Proto.pp_server reply
  in
  Cmd.v
    (Cmd.info "ping"
       ~doc:
         "Liveness probe: uptime, pool size, pool (re)creations, queue \
          depth and served count of a running daemon.")
    Term.(const run $ socket_arg)

let shutdown_cmd =
  let run socket =
    let reply = client_call socket Proto.Shutdown in
    Format.printf "%a@." Proto.pp_server reply
  in
  Cmd.v
    (Cmd.info "shutdown"
       ~doc:
         "Ask the daemon to stop: queued requests are rejected as shutting \
          down, the pool is torn down once, the socket file removed.")
    Term.(const run $ socket_arg)

let serve_stats_cmd =
  let run socket openmetrics =
    match client_call socket Proto.Stats with
    | Proto.Stats_reply snap ->
        if openmetrics then
          print_string (Xinv_obs.Snapshot.to_openmetrics snap)
        else Format.printf "%a@." Xinv_obs.Snapshot.pp snap
    | reply ->
        Format.eprintf "unexpected reply: %a@." Proto.pp_server reply;
        exit 1
  in
  let openmetrics =
    Arg.(
      value & flag
      & info [ "openmetrics" ]
          ~doc:"Emit the OpenMetrics text exposition instead of the table.")
  in
  Cmd.v
    (Cmd.info "serve-stats"
       ~doc:
         "Fetch the daemon's metrics snapshot: serve.* counters, per-tenant \
          counters, queue-wait histogram and queue-depth gauge.")
    Term.(const run $ socket_arg $ openmetrics)

let main =
  Cmd.group
    (Cmd.info "crossinv" ~version:"1.0.0"
       ~doc:
         "Cross-invocation parallelism using runtime information: DOMORE and \
          SPECCROSS on a simulated multicore.")
    [ list_cmd; run_cmd; stats_cmd; top_cmd; experiment_cmd; all_cmd; profile_cmd;
      plan_cmd; trace_cmd; tune_cmd; cache_cmd; serve_cmd; submit_cmd; ping_cmd;
      shutdown_cmd; serve_stats_cmd ]

let () = exit (Cmd.eval main)
