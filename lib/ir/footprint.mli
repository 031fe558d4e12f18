(** Concrete memory footprints of statements in a given iteration context:
    the addresses {!Profile} observes; through resolved {!site}s, the ones
    DOMORE's scheduler, inspector-executor and TLS predict from a
    {!Slice}; and, through a {!feeder}, the ones SPECCROSS's [spec_access]
    instrumentation feeds to the signature generator. *)

val reads : Env.t -> Stmt.t -> int list
(** Flat addresses read, including index-array loads. *)

val writes : Env.t -> Stmt.t -> int list

type site = { name : string; base : int; size : int; index : Expr.t }
(** One access resolved against a memory layout, the run-time form of an
    {!Access.t}: the array's name, flat base and size, looked up once, and
    the index expression, evaluated per iteration.  Built once per run:
    the memory must keep its layout while the site is used (restoring a
    snapshot does). *)

val sites : Memory.t -> Access.t list -> site array
(** The accesses resolved in order, e.g. a slice's [reads] or [writes]. *)

val index : Env.t -> site -> int
(** The index in the iteration [env].
    @raise Invalid_argument when it falls outside the array. *)

val addr : Env.t -> site -> int
(** The flat address, [base + index env site]. *)

type feeder
(** The accesses SPECCROSS instruments in one inner loop's body: those on
    arrays satisfying [hot] (the ones that may alias across invocations),
    directly or as index-array loads, as sites. *)

val feeder : hot:(string -> bool) -> Memory.t -> Program.inner -> feeder
(** Built once per run, like a {!site}. *)

val feed : feeder -> Env.t -> (int -> unit) -> unit
(** [feed fd env sink]: the flat address of every instrumented access of
    the iteration [env], to [sink], without building a list.  Only the
    indices are evaluated.
    @raise Invalid_argument when an index falls outside its array. *)
