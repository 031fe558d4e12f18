(** IR statements.

    A statement carries its static memory footprint (read and write access
    expressions) for the compiler passes, and a dynamic semantics [exec] plus
    a cost model [cost] for simulated execution.  The static footprint must
    over-approximate what [exec] touches; property tests check this. *)

type t = {
  sid : int;  (** unique id, assigned by {!make} *)
  name : string;
  reads : Access.t list;
  writes : Access.t list;
  commutes : bool;  (** updates commute (DOANY may lock instead of order) *)
  side_effect : bool;  (** irreversible (I/O): cannot be speculated/duplicated *)
  cost : Env.t -> float;
  exec : Env.t -> unit;
}

val make :
  ?reads:Access.t list ->
  ?writes:Access.t list ->
  ?commutes:bool ->
  ?side_effect:bool ->
  ?cost:(Env.t -> float) ->
  ?exec:(Env.t -> unit) ->
  string ->
  t
(** Defaults: empty footprints, non-commutative, no side effect, zero cost,
    no-op semantics. *)

val fixed_cost : float -> Env.t -> float

val accesses : t -> Access.t list
(** Reads then writes. *)

val index_arrays : t -> string list
(** Arrays read inside index expressions (what [computeAddr] must load). *)

val feed_structure : (int -> unit) -> (string -> unit) -> t -> unit
(** Canonical token stream of the statement's analysis-relevant structure:
    footprints (reads, then writes), commutativity and side-effect flags.
    Deliberately excludes [sid] (a process-local counter), [name] (fingerprints
    are insensitive to name choices) and the [cost]/[exec] closures — closures
    are unhashable; cost models are covered by the probe points
    {!Xinv_cache.Fingerprint} samples instead. *)

val pp : Format.formatter -> t -> unit
