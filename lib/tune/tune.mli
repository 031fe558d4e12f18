(** The autotuner facade: search for the fastest execution policy of one
    workload on this machine, persist the winner in the analysis cache,
    and report the whole trajectory as [xinv-tune/1] JSON.

    {[
      let wl = Xinv_workloads.Registry.find "SYMM" in
      let r = Tune.tune ~cache:`Rw ~budget:24 wl in
      Format.printf "%s: %s (%.2fx over sequential)@." r.Tune.workload
        (Xinv_cache.Policy.key r.Tune.tuned.Xinv_cache.Policy.policy)
        (r.Tune.tuned.Xinv_cache.Policy.seq_wall_ns
        /. r.Tune.tuned.Xinv_cache.Policy.wall_ns)
    ]}

    A second [tune] with the same [`Rw] (or [`Ro]) cache finds the stored
    {!Xinv_cache.Policy.tuned} under the workload's fingerprint and runs
    zero search trials. *)

type source = [ `Cached | `Searched ]

val source_name : source -> string

type report = {
  workload : string;
  input : Xinv_workloads.Workload.input;
  seed : int;
  budget : int;
  source : source;
  tuned : Xinv_cache.Policy.tuned;
  trials : Search.trial list;
      (** the search trajectory; empty when [source = `Cached] *)
}

val tune :
  ?obs:Xinv_obs.Recorder.t ->
  ?cache:[ `Off | `Ro | `Rw ] ->
  ?cache_dir:string ->
  ?input:Xinv_workloads.Workload.input ->
  ?budget:int ->
  ?seed:int ->
  ?max_domains:int ->
  ?trial_deadline_ms:float ->
  ?work:Xinv_native.Work.t ->
  Xinv_workloads.Workload.t ->
  report
(** Autotune the workload.  With [cache] (default [`Off]) the stored
    policy is consulted first — a hit returns immediately with
    [source = `Cached]; otherwise a {!Search.search} hill climb runs
    (default: [budget] 32 trials, [seed] 42) measuring each candidate with
    [Crossinv.run_request] (the candidate pinned onto the request by
    [Crossinv.Request.apply_policy]) under a per-trial watchdog deadline of
    [1.5 ×] the incumbent's wall time (floored at 20 ms, capped at
    [trial_deadline_ms], default 2000) with degradation off, so trials
    slower than the incumbent are cut off and marked pruned rather than
    run to completion.  Unverified or failed candidates never become the
    incumbent.  With [`Rw] the winner is persisted under the workload's
    fingerprint. *)

val report_json : report -> string
(** The report as an [xinv-tune/1] JSON object (schema, workload, input,
    seed, budget, trials_run, source, cores, best policy with
    measured wall times and speedup, and the full trial list).  Non-finite
    wall times are emitted as [-1]. *)
