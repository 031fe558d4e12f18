type t =
  | Fault_injected of { kind : string; domain : int; site : int }
  | Run_stalled of { role : string; waiting_for : string; waited_ns : float }
  | Degraded of { from_ : string; to_ : string; reason : string }
  | Fingerprint_hit of { fp : string }
  | Fingerprint_miss of { fp : string; reason : string }
  | Policy_applied of { source : string; policy : string }
  | Tune_trial of { policy : string; wall_ns : float; pruned : bool }
