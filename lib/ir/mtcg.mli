(** Multi-threaded code generation (dissertation §3.3.2, Algorithm 4).

    Produces the DOMORE execution plan from a partition: what the scheduler
    thread runs per outer iteration, what a worker runs per dispatched
    iteration, which values flow over the queues, and the generated
    [computeAddr] slice.  Also renders the generated functions as pseudo-code
    in the style of Figure 3.7 for inspection and tests. *)

type plan = {
  program : Program.t;
  partition : Partition.t;
  pdg : Pdg.t;
  slice : Slice.t;  (** region-wide slice (taint check, guard, reporting) *)
  slices : (string * Slice.t) list;
      (** per-inner-loop slices, keyed by label: what the scheduler actually
          evaluates for one iteration of that loop *)
  scheduler_extra : Stmt.t list;  (** body statements re-partitioned to the scheduler *)
  guard_ratio : float;  (** scheduler/worker cost ratio (Table 5.2) *)
}

type verdict = Plan of plan | Inapplicable of string

val generate : ?guard_threshold:float -> Program.t -> Env.t -> verdict
(** Runs the full DOMORE compile-time pipeline: PDG, partition, slice,
    performance guard.  [guard_threshold] (default 0.9) rejects plans whose
    scheduler would be as expensive as the workers. *)

val slice_for : plan -> string -> Slice.t
(** Per-inner slice by label.  @raise Invalid_argument on unknown label. *)

val sites_for : plan -> Memory.t -> string -> Footprint.site array * Footprint.site array
(** [sites_for plan mem] resolves every per-inner slice against [mem] once
    ({!Slice.resolve}); the result gives an inner's resolved reads and
    writes by label.  @raise Invalid_argument on unknown label. *)

val render : plan -> string
(** Pseudo-code of the generated scheduler and worker functions. *)
