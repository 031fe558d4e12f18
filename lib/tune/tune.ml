module Core = Xinv_core
module Cache = Xinv_cache
module Policy = Xinv_cache.Policy
module Wl = Xinv_workloads
module Nat = Xinv_native

type source = [ `Cached | `Searched ]

let source_name = function `Cached -> "cached" | `Searched -> "searched"

type report = {
  workload : string;
  input : Wl.Workload.input;
  seed : int;
  budget : int;
  source : source;
  tuned : Policy.tuned;
  trials : Search.trial list;
}

let default_trial_deadline_ms = 2000.

let tune ?obs ?(cache = `Off) ?cache_dir ?(input = Wl.Workload.Ref)
    ?(budget = 32) ?(seed = 42) ?max_domains
    ?(trial_deadline_ms = default_trial_deadline_ms) ?(work = Nat.Work.Off)
    (wl : Wl.Workload.t) =
  let analysis =
    match cache with
    | `Off -> None
    | (`Ro | `Rw) as mode ->
        Some (Cache.Analysis.make ?obs ?dir:cache_dir ~mode ())
  in
  let program = wl.Wl.Workload.program input in
  let cached =
    match analysis with
    | None -> None
    | Some c ->
        Cache.Analysis.cached_policy c program (wl.Wl.Workload.fresh_env input)
  in
  match cached with
  | Some tuned ->
      {
        workload = wl.Wl.Workload.name;
        input;
        seed;
        budget;
        source = `Cached;
        tuned;
        trials = [];
      }
  | None ->
      let axes = Space.default_axes ?max_domains wl in
      let measure ~incumbent_ns (p : Policy.t) =
        (* The incumbent sets the pruning deadline: a candidate that is
           still running at 1.5x the best-known wall time cannot win, so
           the watchdog cuts it off (degradation stays off — a stall must
           surface as a pruned trial, not silently re-run as barrier). *)
        let deadline_ms =
          if Float.is_finite incumbent_ns && incumbent_ns > 0. then
            Float.min trial_deadline_ms
              (Stdlib.max 20. (incumbent_ns *. 1.5 /. 1e6))
          else trial_deadline_ms
        in
        let native =
          {
            Core.Crossinv.native_defaults with
            work;
            deadline_ms = Some deadline_ms;
            degrade = false;
          }
        in
        match
          Core.Crossinv.run_request
            (Core.Crossinv.Request.make
               ~backend:(`Native native)
               ~input ~verify:true ~cache ?cache_dir ?obs
               ~technique:Core.Crossinv.Sequential ~threads:1 wl
            |> Core.Crossinv.Request.apply_policy p)
        with
        | o ->
            (* The trial's baseline becomes the tuned policy's
               [seq_wall_ns]: verification is what measures it. *)
            let seq_ns =
              match o.Core.Crossinv.seq_cost with
              | Some c -> Core.Crossinv.cost_value c
              | None -> invalid_arg "Tune.measure: the trial ran no sequential baseline"
            in
            {
              Search.m_wall_ns = Core.Crossinv.cost_value o.Core.Crossinv.cost;
              m_seq_ns = seq_ns;
              m_ok = o.Core.Crossinv.verified;
              m_pruned = false;
            }
        | exception (Nat.Watchdog.Stalled _ | Nat.Watchdog.Cancelled _) ->
            {
              Search.m_wall_ns = Float.infinity;
              m_seq_ns = 0.;
              m_ok = false;
              m_pruned = true;
            }
        | exception Failure _ ->
            {
              Search.m_wall_ns = Float.infinity;
              m_seq_ns = 0.;
              m_ok = false;
              m_pruned = false;
            }
      in
      (* Trial 1 (native sequential) sets the incumbent: time it warm. *)
      Core.Crossinv.warm_up
        (Core.Crossinv.Request.make
           ~backend:(`Native { Core.Crossinv.native_defaults with work })
           ~input ~cache ?cache_dir ~technique:Core.Crossinv.Sequential ~threads:1 wl);
      let r = Search.search ?obs ~budget ~seed ~axes ~measure () in
      let tuned =
        {
          Policy.policy = r.Search.best;
          wall_ns = r.Search.best_wall_ns;
          seq_wall_ns = r.Search.best_seq_ns;
          trials = r.Search.evaluated;
          seed;
        }
      in
      (match analysis with
      | Some c when Cache.Analysis.mode c = `Rw ->
          Cache.Analysis.store_policy c program
            (wl.Wl.Workload.fresh_env input)
            tuned
      | _ -> ());
      {
        workload = wl.Wl.Workload.name;
        input;
        seed;
        budget;
        source = `Searched;
        tuned;
        trials = r.Search.trials;
      }

let json_ns v = if Float.is_finite v then Printf.sprintf "%.0f" v else "-1"

let report_json r =
  let b = Buffer.create 1024 in
  let t = r.tuned in
  let speedup =
    if Float.is_finite t.Policy.wall_ns && t.Policy.wall_ns > 0. then
      t.Policy.seq_wall_ns /. t.Policy.wall_ns
    else 0.
  in
  Buffer.add_string b
    (Printf.sprintf
       "{\"schema\": \"xinv-tune/1\", \"workload\": %S, \"input\": %S, \
        \"seed\": %d, \"budget\": %d, \"trials_run\": %d, \
        \"source\": %S, \"cores\": %d, \"best\": {\"policy\": %s, \"key\": \
        %S, \"wall_ns\": %s, \"seq_wall_ns\": %s, \"speedup_vs_seq\": %.4f}, \
        \"trials\": ["
       r.workload
       (Wl.Workload.input_name r.input)
       r.seed r.budget (List.length r.trials) (source_name r.source)
       (Domain.recommended_domain_count ())
       (Policy.to_json t.Policy.policy)
       (Policy.key t.Policy.policy) (json_ns t.Policy.wall_ns)
       (json_ns t.Policy.seq_wall_ns) speedup);
  List.iteri
    (fun i (tr : Search.trial) ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b
        (Printf.sprintf
           "{\"index\": %d, \"policy\": %S, \"wall_ns\": %s, \"ok\": %b, \
            \"pruned\": %b}"
           tr.Search.t_index
           (Policy.key tr.Search.t_policy)
           (json_ns tr.Search.t_wall_ns)
           tr.Search.t_ok tr.Search.t_pruned))
    r.trials;
  Buffer.add_string b "]}";
  Buffer.contents b
