(** Concrete memory footprints of statements in a given iteration context:
    the addresses {!Profile} observes, and, through a {!feeder}, the ones
    SPECCROSS's [spec_access] instrumentation feeds to the signature
    generator. *)

val reads : Env.t -> Stmt.t -> int list
(** Flat addresses read, including index-array loads. *)

val writes : Env.t -> Stmt.t -> int list

type feeder
(** The accesses SPECCROSS instruments in one inner loop's body: those on
    arrays satisfying [hot] (the ones that may alias across invocations),
    directly or as index-array loads, with each array's base and bounds
    resolved once. *)

val feeder : hot:(string -> bool) -> Memory.t -> Program.inner -> feeder
(** Built once per run: [Memory.t] must keep its layout while the feeder is
    used (restoring a snapshot does). *)

val feed : feeder -> Env.t -> (int -> unit) -> unit
(** [feed fd env sink]: the flat address of every instrumented access of
    the iteration [env], to [sink], without building a list.  Only the
    indices are evaluated.
    @raise Invalid_argument when an index falls outside its array. *)
