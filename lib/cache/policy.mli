(** An execution policy: every runtime knob the facade exposes, bundled as
    one value the autotuner can search over and the cache can persist.

    A policy answers "how should this workload be executed on this
    machine": which backend, which technique, how many execution contexts,
    the native dispatch grain and publish batch, the SPECCROSS signature
    scheme and speculative distance, and the checkpoint epoch size.  The
    autotuner ([lib/tune]) explores this space,
    [Crossinv.Request.apply_policy] turns a point of it into an actual
    run, and {!tuned} records the winning point together with the evidence
    (measured wall time, trials spent, search seed) inside the
    analysis-cache artifact keyed by the workload's {!Fingerprint} — so a
    tuned workload never re-searches.

    The same record is also the wire form of a run's axes: a serve-daemon
    request ([Xinv_serve.Request.t]) carries one, and the daemon resolves
    it through [Crossinv.Request.apply_policy] like a tuned policy.
    {!default} is the one place the axis defaults are written.

    This module is deliberately dependency-free (strings and ints only):
    the technique is stored by name and the signature scheme as a selector,
    so the cache layer never depends on the engine layers above it. *)

type backend = [ `Sim | `Native ]

type sig_kind = [ `Range | `Segmented | `Bloom | `Exact ]
(** Selector for {!Xinv_runtime.Signature.kind}; the runner reifies
    [`Segmented] with the live environment's memory bounds and [`Bloom]
    with the repository-standard 4096/3 parameters. *)

type t = {
  backend : backend;
  technique : string;  (** {!Xinv_core.Crossinv.technique_name} spelling *)
  domains : int;  (** execution contexts (simulated threads or real domains) *)
  grain : int;  (** native dispatch chunk size *)
  batch : int;  (** native write-combining factor *)
  sig_kind : sig_kind;  (** SPECCROSS signature scheme *)
  spec_distance : int option;
      (** speculative lead bound; [None] defers to the profiled default *)
  epoch_size : int;  (** epochs between checkpoints ([checkpoint_every]) *)
}

type tuned = {
  policy : t;
  wall_ns : float;  (** measured wall time under [policy] at tuning time *)
  seq_wall_ns : float;  (** sequential baseline of the same tuning run *)
  trials : int;  (** search trials spent finding it *)
  seed : int;  (** search seed, for reproducing the trajectory *)
}

val default : t
(** Native sequential on one domain with default knobs — the incumbent
    every search starts from, and the source of every axis default
    ([Crossinv.native_defaults], [Crossinv.Request.make] and
    [Xinv_serve.Request.make] read it). *)

val backend_name : backend -> string

val sig_kind_name : sig_kind -> string

val equal : t -> t -> bool

val key : t -> string
(** Canonical one-line spelling, unique per distinct policy — used as the
    dedup key by the search and as the display form everywhere:
    ["native:speccross d4 g16 b32 sig=segmented spec=8 epoch=1000"]. *)

val to_string : t -> string
(** Same as {!key}. *)

val to_json : t -> string
(** The policy as a JSON object (stable field names, [xinv-tune/1]). *)

val pp : Format.formatter -> t -> unit
