(** All benchmark workloads (the rows of Table 5.1). *)

val all : unit -> Workload.t list
(** The same records on every call, from every domain. *)

val find : string -> Workload.t
(** Case-insensitive lookup.  @raise Invalid_argument on unknown name. *)

val names : unit -> string list

val domore_set : unit -> Workload.t list
(** The six DOMORE-evaluated benchmarks (Figure 5.1). *)

val speccross_set : unit -> Workload.t list
(** The eight SPECCROSS-evaluated benchmarks (Figure 5.2). *)
