module Ir = Xinv_ir
module Par = Xinv_parallel
module Wl = Xinv_workloads
module Cx = Xinv_core.Crossinv

let tab5_1 () =
  let rows =
    List.map
      (fun (wl : Wl.Workload.t) ->
        let plan_str =
          wl.Wl.Workload.plan
          |> List.map (fun (_, t) -> Par.Intra.name t)
          |> List.sort_uniq String.compare
          |> String.concat "/"
        in
        let mark expected = function
          | Ok () -> if expected then "yes" else "yes (not evaluated)"
          | Error reason -> Printf.sprintf "no (%s)" reason
        in
        [
          wl.Wl.Workload.name;
          wl.Wl.Workload.suite;
          wl.Wl.Workload.func;
          Xinv_util.Tab.fmt_f ~d:1 wl.Wl.Workload.exec_pct;
          plan_str;
          mark wl.Wl.Workload.domore_expected (Cx.applicable Cx.Domore wl);
          mark wl.Wl.Workload.speccross_expected (Cx.applicable Cx.Speccross wl);
        ])
      (Wl.Registry.all ())
  in
  "Table 5.1: benchmark details and technique applicability\n\n"
  ^ Xinv_util.Tab.render
      ~header:
        [ "benchmark"; "suite"; "function"; "% exec"; "inner-loop plan"; "DOMORE"; "SPECCROSS" ]
      rows

let tab5_2 () =
  let rows =
    List.filter_map
      (fun (wl : Wl.Workload.t) ->
        match Cx.applicable Cx.Domore wl with
        | Error _ -> None
        | Ok () ->
            let o = Common.speedup_at wl Cx.Domore 24 in
            let ratio =
              match o.Cx.run with
              | Some r -> 100. *. Xinv_domore.Domore.scheduler_worker_ratio r
              | None -> 0.
            in
            Some [ wl.Wl.Workload.name; Xinv_util.Tab.fmt_f ~d:1 ratio ])
      (Wl.Registry.domore_set ())
  in
  "Table 5.2: scheduler busy time as a share of total worker work\n\n"
  ^ Xinv_util.Tab.render ~header:[ "benchmark"; "% of scheduler/worker" ] rows

let tab5_3 () =
  let rows =
    List.map
      (fun (wl : Wl.Workload.t) ->
        let input = Common.spec_input wl in
        let dist (prof : Xinv_speccross.Profiler.t) =
          match prof.Xinv_speccross.Profiler.min_task_distance with
          | None -> "*"
          | Some d -> string_of_int d
        in
        let o = Common.speedup_at ~input wl Cx.Speccross 24 in
        (* the run's own profile is the train one *)
        let train_dist = dist (Option.get o.Cx.profile) in
        let ref_dist =
          dist
            (Xinv_speccross.Profiler.profile (wl.Wl.Workload.program input)
               (wl.Wl.Workload.fresh_env input))
        in
        let tasks, epochs, checks =
          match o.Cx.run with
          | Some r ->
              (r.Par.Run.tasks, r.Par.Run.invocations, r.Par.Run.checks)
          | None -> (0, 0, 0)
        in
        [
          wl.Wl.Workload.name;
          string_of_int tasks;
          string_of_int epochs;
          string_of_int checks;
          train_dist;
          ref_dist;
        ])
      (Wl.Registry.speccross_set ())
  in
  "Table 5.3: speculative execution statistics at 24 threads ('*': no\n\
   cross-invocation conflict manifested during profiling)\n\n"
  ^ Xinv_util.Tab.render
      ~header:
        [ "benchmark"; "# tasks"; "# epochs"; "# check requests"; "min dist (train)"; "min dist (ref)" ]
      rows
