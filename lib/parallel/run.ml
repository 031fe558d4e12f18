type t = {
  technique : string;
  threads : int;
  makespan : float;
  engine : Xinv_sim.Engine.t;
  tasks : int;
  invocations : int;
  barrier_episodes : int;
  checks : int;
  misspecs : int;
  checkpoints : int;
  epochs_redone : int;
  recovery_time : int;
  signatures_compared : int;
  recorder : Xinv_obs.Recorder.t option;
}

let make ~technique ~threads ~makespan ~engine ?(tasks = 0) ?(invocations = 0)
    ?(barrier_episodes = 0) ?(checks = 0) ?(misspecs = 0) ?(checkpoints = 0)
    ?(epochs_redone = 0) ?(recovery_time = 0) ?(signatures_compared = 0) ?recorder () =
  {
    technique;
    threads;
    makespan;
    engine;
    tasks;
    invocations;
    barrier_episodes;
    checks;
    misspecs;
    checkpoints;
    epochs_redone;
    recovery_time;
    signatures_compared;
    recorder;
  }

let speedup ~seq_cost r = if r.makespan <= 0. then infinity else seq_cost /. r.makespan

let category_total r cat = Xinv_sim.Engine.total r.engine cat

let barrier_overhead_pct r =
  let cap = float_of_int r.threads *. r.makespan in
  if cap <= 0. then 0.
  else 100. *. category_total r Xinv_sim.Category.Barrier_wait /. cap

let utilization r =
  let cap = float_of_int r.threads *. r.makespan in
  if cap <= 0. then 0.
  else
    (category_total r Xinv_sim.Category.Work +. category_total r Xinv_sim.Category.Sequential)
    /. cap

let tracks r = Array.init (Xinv_sim.Engine.thread_count r.engine) (Xinv_sim.Engine.name_of r.engine)

let entries r = match r.recorder with Some o -> Xinv_obs.Recorder.flight o | None -> []

let report ?counters r =
  let metrics = Option.map Xinv_obs.Recorder.metrics r.recorder in
  let counters =
    match counters with Some _ -> counters | None -> Option.map Xinv_obs.Metrics.counters metrics
  in
  Xinv_obs.Report.build ~backend:"sim" ~clock:Xinv_obs.Flight.Cycles ~makespan:r.makespan
    ~tracks:(tracks r)
    ~work:
      (Array.init (Xinv_sim.Engine.thread_count r.engine) (fun tid ->
           Xinv_sim.Engine.charged r.engine tid Xinv_sim.Category.Work
           +. Xinv_sim.Engine.charged r.engine tid Xinv_sim.Category.Sequential))
    ?counters
    ?gauges:(Option.map Xinv_obs.Metrics.gauges metrics)
    (entries r)

let pp ppf r =
  Format.fprintf ppf
    "@[<v>%s: %d threads, makespan %.0f@,tasks %d, invocations %d, barriers %d, checks %d, misspecs %d@,barrier overhead %.1f%%, utilization %.1f%%@]"
    r.technique r.threads r.makespan r.tasks r.invocations r.barrier_episodes r.checks
    r.misspecs (barrier_overhead_pct r)
    (100. *. utilization r)
