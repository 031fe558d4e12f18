(** Why a thread waits: the one stall vocabulary of both backends.

    The simulator's engines and the native engines ({!Xinv_native.Stallcat})
    charge every blocked episode to exactly one of these causes, and every
    report, trace and bench row names it with {!name}. *)

type t =
  | Queue_empty  (** consumer waiting for work on an empty queue *)
  | Queue_full  (** producer waiting for space in a full queue *)
  | Sync_cond  (** worker waiting on a forwarded synchronization condition *)
  | Barrier_wait  (** party waiting at a barrier *)
  | Checker_lag  (** speculative worker waiting for the checker to drain *)
  | Throttle  (** speculative worker held back by the spec-distance range *)
  | Rally  (** waiting for peers at a checkpoint or an irreversible epoch *)

val all : t list
(** Every cause, in {!index} order. *)

val count : int

val index : t -> int
(** Position in {!all}; the code a [Stall_begin]/[Stall_end] flight entry
    carries in its [a] field. *)

val of_index : int -> t option

val name : t -> string
(** Stable label: [queue-empty], [queue-full], [sync-cond], [barrier],
    [checker-lag], [throttle], [rally]. *)

val of_name : string -> t option
