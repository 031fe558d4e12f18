(** Process-side operations for code running inside a simulated thread.

    All functions perform effects handled by {!Engine.run}; calling them
    outside a simulated thread raises [Effect.Unhandled]. *)

val advance : ?label:string -> Category.t -> float -> unit
(** Consume virtual cycles, charged to the category (and traced). *)

val work : ?label:string -> float -> unit
(** [work c] = [advance Category.Work c]. *)

val now : unit -> float

val suspend : Category.t -> ((unit -> unit) -> unit) -> unit
(** [suspend cat register] parks the calling thread; [register] receives a
    waker that, when first called, makes the thread runnable at the waker
    caller's current virtual time and charges the cycles blocked since the
    suspend to [cat] (nothing when none passed).  Later calls do nothing. *)
