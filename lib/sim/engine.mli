(** Deterministic discrete-event simulator of a shared-memory multicore.

    Simulated threads are OCaml effect-handler coroutines.  Each thread is
    pinned to its own core, consumes virtual cycles via {!Proc.advance}, and
    blocks/wakes through the primitives built on {!Proc.suspend}
    ({!Barrier}, {!Channel}, {!Mono_cell}, {!Mutex}).

    The engine keeps its own event queue, ordered by (virtual time,
    scheduling sequence): events at equal virtual times fire in FIFO order
    of scheduling, not thread order, so a run is a pure function of its
    inputs — reproducibility the dissertation's evaluation relies on.  A
    blocked wait is charged to the category its primitive names when the
    waker fires. *)

type t

type tid = int

exception Deadlock of string
(** Raised by {!run} when no event is pending but live threads remain
    suspended; the message carries the simulated clock and, per stuck thread,
    its name, id and state ([Suspended] vs [Ready]), e.g.
    ["at t=42: consumer(#1,Suspended)"]. *)

type _ Effect.t +=
  | E_advance : Category.t * string option * float -> unit Effect.t
  | E_suspend : Category.t * ((unit -> unit) -> unit) -> unit Effect.t
  | E_now : float Effect.t
(** Performed by {!Proc}; handled only inside a thread started by {!run}. *)

val create : ?trace:bool -> unit -> t

val spawn : t -> ?name:string -> (unit -> unit) -> tid
(** [spawn eng f] registers a thread whose body runs when {!run} reaches its
    start time (the engine's current time).  Tids are dense, from 0. *)

val run : t -> unit
(** Runs until no event remains.  @raise Deadlock if threads are stuck. *)

val now : t -> float
(** Current virtual time (also the makespan once {!run} returned). *)

val thread_count : t -> int

val name_of : t -> tid -> string

val charged : t -> tid -> Category.t -> float
(** Virtual cycles charged by thread [tid] to a category. *)

val total : t -> Category.t -> float
(** Sum of {!charged} over all threads. *)

val busy : t -> tid -> float
(** Sum over all categories for one thread. *)

val charge : t -> tid -> Category.t -> float -> unit
(** Bookkeeping-only charge (no virtual time consumed).  The engine uses it
    to attribute a blocked wait when the waker fires. *)

val segments : t -> Trace.segment list
(** Captured trace segments, oldest first (empty unless [~trace:true]). *)
