(** The policy search space: which values each {!Xinv_cache.Policy} axis
    may take for one workload on this machine, plus the moves the hill
    climber makes through it (random restart points, one-axis
    neighbourhoods).

    Many axis combinations are observationally equivalent — the publish
    batch does not exist under the barrier engine, the signature scheme
    only exists under SPECCROSS, a sequential run has no domains to count.
    {!canon} collapses every policy onto one representative per
    equivalence class, so the search never spends two trials measuring the
    same configuration under different spellings. *)

module Policy := Xinv_cache.Policy

type axes = {
  backends : Policy.backend list;
  techniques : string list;  (** technique names, always includes sequential *)
  domains : int list;
  widths : (string * int list) list;
      (** per technique, the [domains] it runs at: those
          {!Xinv_core.Crossinv.applicable} accepts as its [~threads]
          (DOMORE and SPECCROSS need 2).  [techniques] are its keys. *)
  grains : int list;
  batches : int list;
  sigs : Policy.sig_kind list;
  spec_distances : int option list;
  epochs : int list;
}

val default_axes : ?max_domains:int -> Xinv_workloads.Workload.t -> axes
(** The native search space for the workload: domain counts are [1;2;4]
    capped at [max_domains] (default [Domain.recommended_domain_count ()]),
    and each technique keeps the counts at which
    {!Xinv_core.Crossinv.applicable} accepts it on the native backend; a
    technique that runs at none is dropped.  {!random}, {!neighbours} and
    {!seeds} propose only policies whose technique runs at their domain
    count. *)

val size : axes -> int
(** Upper bound on distinct points (pre-{!canon} product of axis sizes). *)

val canon : Policy.t -> Policy.t
(** Canonical representative: axes the policy's technique ignores are
    reset to {!Policy.default}'s values. *)

val random : Xinv_util.Prng.t -> axes -> Policy.t

val neighbours : axes -> Policy.t -> Policy.t list
(** Every canonical policy one axis-change away, deduplicated, without
    the policy itself.  Deterministic order (axis-major, axis-list
    order). *)

val seeds : axes -> Policy.t list
(** Hill-climbing starting points: one sensible configuration per
    applicable technique (its widest domain count, mid grain). *)
