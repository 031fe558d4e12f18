(** Deterministic fault injection for the native backend.

    A fault is armed at a (domain, site) coordinate — sites are engine
    progress ordinals (global iteration number for barrier/DOMORE plans,
    epoch for SPECCROSS, drained requests for the checker) — and fires
    {e exactly once}, at the first occasion at or after the armed site on
    a matching domain.  Firing is claimed with a compare-and-set, so even
    a wildcard-domain fault is injected by a single domain.

    Kinds model the failure classes the robustness layer must survive:
    an exception escaping a worker's task, the DOMORE scheduler or
    SPECCROSS checker dying mid-stream, a queue producer wedging (stall),
    and a poisoned synchronization condition that can never be satisfied. *)

type kind =
  | Worker_raise  (** a worker task raises {!Injected} *)
  | Scheduler_die  (** the DOMORE scheduler / SPECCROSS worker 0 raises *)
  | Checker_die  (** the SPECCROSS checker domain raises *)
  | Queue_stall  (** a producer stops feeding its consumer *)
  | Poison_cond  (** an unsatisfiable sync condition / wedged domain *)

type t

type spec =
  | Exact of { kind : kind; domain : int; site : int }
      (** [domain = -1] matches any domain. *)
  | Random of int  (** seed; resolved via {!Xinv_util.Prng} at run start. *)

exception Injected of { kind : kind; domain : int; site : int }
(** Raised at the injection point (for kinds that raise); carries the
    actual firing coordinate. *)

val kind_name : kind -> string

val spec_of_string : string -> (spec, string) result
(** Parses the CLI [--inject] syntax: [raise@D:S], [stall@D:S],
    [poison@D:S] (with [D] a domain index or [*]), [sched-die@S],
    [checker-die@S], and [rand:SEED]. *)

val spec_to_string : spec -> string

val resolve : domains:int -> sites:int -> spec -> t
(** Fix a concrete fault for one run.  [Random] draws kind, domain and
    site from a {!Xinv_util.Prng} stream seeded with the spec's seed, so
    a given seed always yields the same fault. *)

val fires : t option -> kind -> domain:int -> site:int -> bool
(** [fires f kind ~domain ~site] is true exactly once per fault: when the
    kind matches, the domain matches (or the fault is wildcard), the site
    is at or past the armed site, and this caller wins the firing CAS.
    [None] never fires — engines thread [t option] unconditionally. *)

val inject : t option -> kind -> domain:int -> site:int -> unit
(** Convenience: raise {!Injected} when {!fires}. *)

val fired : t option -> bool
(** Whether the fault has fired (feeds the [fault.injected] counter). *)

val kind : t option -> kind option

val info : t -> kind * int * int
(** Armed (kind, domain, site) — the spec's coordinates, not necessarily
    the exact firing coordinate (wildcard domains, at-or-after sites). *)
