(** Program dependence graph over the statements of a loop-nest region.

    Edges are classified the way Chapter 3 of the dissertation uses them:
    intra-iteration, cross-iteration (carried by the inner loop),
    cross-invocation (between invocations, carried by the outer loop), and
    scheduler-to-worker flow.  Classification is static and conservative:
    irregular (non-affine) accesses conflict unless proven otherwise. *)

type kind =
  | Intra  (** same inner iteration *)
  | Cross_iter  (** carried by the inner loop within one invocation *)
  | Cross_invoc  (** between different invocations (or sequential code) *)
  | Flow  (** sequential (pre) statement feeding an inner-loop body *)

type edge = {
  src : int;  (** source statement id *)
  dst : int;
  kind : kind;
  carried_outer : bool;  (** manifests on a later outer iteration (backedge) *)
}

type loc = { inner_idx : int; in_body : bool; ord : int }

type t = {
  stmts : (Stmt.t * loc) list;  (** program order *)
  edges : edge list;
}

val build : Program.t -> t

val conflict : Stmt.t -> Stmt.t -> bool
(** May one statement's writes overlap the other's accesses (including
    index-array reads)?  Symmetric in neither argument: tests writes of the
    first against all accesses of the second. *)

val stmt_of : t -> int -> Stmt.t

val loc_of : t -> int -> loc

val cross_iter_pairs : t -> (int * int) list
(** Statement-id pairs connected by a [Cross_iter] edge. *)

val has_cross_iter : t -> inner_idx:int -> bool
(** Any cross-iteration edge among the body statements of one inner loop —
    the static DOALL-blocking test. *)

val pp : Format.formatter -> t -> unit

val to_graph : t -> Scc.graph * int array
(** Dense graph over statement indices plus the [index -> sid] mapping. *)
