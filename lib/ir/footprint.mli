(** The one way an access becomes an address.  A {!site} is an access
    resolved against a memory and compiled once per run; a {!touch} lists
    every site a statement touches.  {!Profile} and {!Validate} walk
    statements' touches; DOMORE's scheduler, inspector-executor and TLS
    evaluate a {!Slice}'s sites; LOCALWRITE and DOANY take owners and lock
    stripes from write sites; and a {!feeder} streams the sites SPECCROSS's
    [spec_access] instrumentation feeds to the signature generator. *)

type site = { name : string; base : int; size : int; index : Env.t -> int }
(** One access resolved against a memory: the array's name, flat base and
    size, looked up once, and its index expression compiled once
    ({!Expr.compile}), without the bounds check {!val-index} adds.  Valid
    for that memory only, also after {!Memory.restore} into it (which
    keeps its arrays), not for another {!Memory.t}. *)

val site : Memory.t -> Access.t -> site

val sites : Memory.t -> Access.t list -> site array
(** The accesses resolved in order, e.g. a slice's [reads] or [writes]. *)

val index : Env.t -> site -> int
(** The index in the iteration [env].
    @raise Invalid_argument when it falls outside the array. *)

val addr : Env.t -> site -> int
(** The flat address, [base + index env site]. *)

val owner : threads:int -> Env.t -> site -> int
(** The LOCALWRITE owner of the element the site touches: the array split
    into [threads] contiguous blocks, index [i] of an array of size [s]
    belonging to [i * threads / s].  DOMORE's memory-partition policy
    routes an iteration by the same rule. *)

type touch = {
  stmt : Stmt.t;
  reads : site array;  (** the statement's direct reads *)
  loads : site array;
      (** the index-array loads of its reads', then its writes', index
          expressions, outermost first *)
  writes : site array;
}
(** Every site one statement touches, in the order {!Profile} records
    them: [reads], [loads], then [writes]. *)

val touch : Memory.t -> Stmt.t -> touch

val touches : Memory.t -> Stmt.t list -> touch array

val program : Memory.t -> Program.t -> (Program.inner * touch array * touch array) list
(** Every inner loop with its sequential region's and its body's
    statements resolved, once per run: the table {!Profile} and
    {!Validate} walk. *)

val bodies : Memory.t -> Program.t -> Program.inner -> touch array
(** [bodies mem p] resolves every inner loop's body once; the result gives
    an inner loop's body statements (by physical identity).
    @raise Invalid_argument for an inner loop not in [p]. *)

type feeder
(** The sites SPECCROSS instruments in one inner loop's body: those on
    arrays satisfying [hot] (the ones that may alias across invocations),
    directly or as index-array loads. *)

val feeder : hot:(string -> bool) -> touch array -> feeder
(** Per statement: its hot reads, writes, then loads. *)

val feed : feeder -> Env.t -> (int -> unit) -> unit
(** [feed fd env sink]: the flat address of every instrumented access of
    the iteration [env], to [sink], without building a list.  Only the
    indices are evaluated.
    @raise Invalid_argument when an index falls outside its array. *)
