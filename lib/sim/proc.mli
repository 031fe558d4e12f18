(** Process-side operations for code running inside a simulated thread.

    All functions perform effects handled by {!Engine.run}; calling them
    outside a simulated thread raises [Effect.Unhandled]. *)

val advance : ?label:string -> Category.t -> float -> unit
(** Consume virtual cycles, charged to the category (and traced). *)

val work : ?label:string -> float -> unit
(** [work c] = [advance Category.Work c]. *)

val now : unit -> float

val self : unit -> Engine.tid

val engine : unit -> Engine.t

val spawn : ?name:string -> (unit -> unit) -> Engine.tid

val suspend : ((unit -> unit) -> unit) -> unit
(** [suspend register] parks the calling thread; [register] receives a waker
    that, when called (once), makes the thread runnable at the waker caller's
    current virtual time. *)

val charge_wait : Category.t -> since:float -> unit
(** Attribute [now () - since] virtual cycles of blocked time. *)
