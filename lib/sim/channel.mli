(** Simulated lock-free single-producer single-consumer queue.

    Models the produce/consume communication primitive DOMORE uses to forward
    synchronization conditions from the scheduler to the workers (the design
    cited as [30] in the dissertation).  Produce and consume each cost a few
    cycles; consuming from an empty queue blocks, with the blocked time
    charged to {!Category.Queue}. *)

type 'a t

val create : ?produce_cost:float -> ?consume_cost:float -> unit -> 'a t

val produce : 'a t -> 'a -> unit


val consume : 'a t -> 'a
(** Blocks until an element is available. *)

val try_consume : 'a t -> 'a option
(** Non-blocking variant; pays the consume cost only on success. *)

val length : 'a t -> int

val produced : 'a t -> int
(** Total number of elements ever produced. *)
