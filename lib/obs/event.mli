(** Once-per-run control records.

    Faults, watchdog stalls, degradations, cache lookups and policy
    decisions happen at most a few times per run and outside any engine's
    hot loop.  Run events (dispatches, stalls, commits, …) are
    {!Flight.entry} records instead, on both backends. *)

type t =
  | Fault_injected of { kind : string; domain : int; site : int }
      (** a {!Xinv_native.Fault} fired at (domain, site) during a native run *)
  | Run_stalled of { role : string; waiting_for : string; waited_ns : float }
      (** a watchdog-bounded wait exceeded its budget and raised [Stalled] *)
  | Degraded of { from_ : string; to_ : string; reason : string }
      (** the facade retried a failed native run under a weaker technique *)
  | Fingerprint_hit of { fp : string }
      (** the analysis cache served this workload fingerprint from disk *)
  | Fingerprint_miss of { fp : string; reason : string }
      (** the analysis cache could not serve the fingerprint ([reason]:
          absent, partial, alias, corrupt, version, …) and fresh analysis ran *)
  | Policy_applied of { source : string; policy : string }
      (** the run's execution policy was resolved from the analysis cache
          ([source]: cached, or default on a miss) *)
  | Tune_trial of { policy : string; wall_ns : float; pruned : bool }
      (** the autotuner measured one candidate policy ([pruned] when the
          per-trial watchdog deadline cut it off as slower than the
          incumbent) *)
