(** Deterministic policy search over a {!Space.axes}.

    The search never times anything itself: it asks the injected [measure]
    function for every evaluation, so given the same seed and the same
    measure it visits the same trial sequence and returns the same best
    policy.  Tests drive it with a synthetic cost model; {!Tune} drives it
    with real [Crossinv.run_request] wall times.

    Policies are canonicalized ({!Space.canon}) and deduplicated by
    {!Xinv_cache.Policy.key} — each distinct configuration is measured at
    most once, and only fresh measurements consume budget. *)

module Policy := Xinv_cache.Policy

type measurement = {
  m_wall_ns : float;  (** measured cost; [infinity] when the run failed *)
  m_seq_ns : float;  (** sequential baseline of the same measurement *)
  m_ok : bool;  (** ran to completion and verified *)
  m_pruned : bool;
      (** cut off by the per-trial deadline (slower than the incumbent) *)
}

type trial = {
  t_index : int;  (** 1-based evaluation order *)
  t_policy : Policy.t;
  t_wall_ns : float;
  t_seq_ns : float;
  t_ok : bool;
  t_pruned : bool;
}

type result = {
  best : Policy.t;
  best_wall_ns : float;
  best_seq_ns : float;
  evaluated : int;  (** distinct policies measured (= budget consumed) *)
  trials : trial list;  (** in evaluation order *)
}

val search :
  ?obs:Xinv_obs.Recorder.t ->
  budget:int ->
  seed:int ->
  axes:Space.axes ->
  measure:(incumbent_ns:float -> Policy.t -> measurement) ->
  unit ->
  result
(** Explore [axes] for at most [budget] measured trials by
    first-improvement hill climbing from {!Space.seeds}, then random
    restarts until the budget runs out.  Trial 1 is always
    {!Policy.default} (native sequential), which seeds the incumbent; [measure] receives the incumbent's wall time so it can set
    a pruning deadline ([infinity] before the first success).  With
    [?obs], each measurement bumps the [tune.trial] counter. *)
