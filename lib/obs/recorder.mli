(** The observability collection point threaded through the runtimes.

    Holds the run's {!Flight.entry} log (a growable array: the simulator
    emits every event with its virtual-cycle stamp and never drops one)
    and the {!Metrics} registry.  The simulated engines log run events
    here but bump no counter: [Crossinv.run_request] publishes a run's
    counts from its result record, once per run, under the same names on
    either backend.
    Recording consumes no virtual time and performs no effects, so a run
    with a recorder attached is bit-identical (makespan, tasks, checks,
    misspeculations) to the same run without one — the property test in
    [test_obs.ml] pins this.

    Observability is off by default: executors take the recorder as an
    optional argument and instrumented sites guard on its presence, so the
    disabled path costs one pattern match. *)

type t

val create : unit -> t

val emit : t -> at:float -> domain:int -> Flight.kind -> a:int -> b:int -> unit
(** Append one run event stamped [at] (rounded to a whole tick). *)

val stall : t -> at:float -> domain:int -> Cause.t -> float -> unit
(** [stall t ~at ~domain cause dur] emits the [Stall_end] entry of a wait
    that ended at [at] after [dur] ticks blocked; a wait of [dur <= 0] is
    no stall and emits nothing. *)

val flight : t -> Flight.entry list
(** The run events, in emission order. *)

val length : t -> int
(** Run events logged. *)

val metrics : t -> Metrics.t
