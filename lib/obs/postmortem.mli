(** Postmortem dumps: on a failed native attempt (injected fault, watchdog
    stall, cancellation), snapshot the flight rings plus counters into a
    line-oriented text report and a companion Perfetto trace.

    The text format is deliberately grep-able: a [key: value] header block
    ([reason:], [event:], [degraded-to:], ...), a [stall-attribution:]
    section that always lists every stall cause (so attribution is non-empty
    even for faults that fired before any wait blocked), a [bottleneck:]
    line from {!Report}, a [counters:] section and a tail of recent
    flight events per domain. *)

val render :
  workload:string ->
  technique:string ->
  attempt:int ->
  reason:string ->
  event:string ->
  ?degraded_to:string ->
  ?counters:(string * int) list ->
  ?flight:Flight.t ->
  unit ->
  string
(** The postmortem text.  [event] is the machine-readable one-liner for the
    triggering exception (e.g. ["fault_injected kind=worker-raise domain=2
    site=2"]); [reason] is the human-readable form. *)

val write :
  dir:string ->
  base:string ->
  workload:string ->
  technique:string ->
  attempt:int ->
  reason:string ->
  event:string ->
  ?degraded_to:string ->
  ?counters:(string * int) list ->
  ?flight:Flight.t ->
  unit ->
  string * string option
(** Creates [dir] if needed, writes [<dir>/<base>.txt] and — when a flight
    recording is attached — [<dir>/<base>.trace.json] (Perfetto).  Returns
    the text path and the optional trace path. *)
