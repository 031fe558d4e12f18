(** Concrete memory footprints of statements in a given iteration context —
    the addresses SPECCROSS's [spec_access] instrumentation feeds to the
    signature generator. *)

val reads : Env.t -> Stmt.t -> int list
(** Flat addresses read, including index-array loads. *)

val writes : Env.t -> Stmt.t -> int list

val all : Env.t -> Stmt.t -> int list

val body : Env.t -> Program.inner -> int list
(** Footprint of one whole inner-loop iteration. *)

val body_filtered : hot:(string -> bool) -> Env.t -> Program.inner -> int list
(** Footprint restricted to arrays satisfying [hot] — the accesses SPECCROSS
    actually instruments (those that may alias across invocations). *)
