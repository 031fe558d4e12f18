(** Chrome/Perfetto [trace_event] JSON export, for either backend.

    One process with one track per thread or domain.  [Stall_end] entries
    become duration events named [stall:<cause>] (placed where the stall
    began), [Queue_sample] entries become counter events ([ph:"C"]) so
    Perfetto draws queue occupancy as a graph, and every other entry is an
    instant event named by {!Flight.kind_name}.  Simulated cycles are
    exported as microseconds, wall-clock nanoseconds are scaled to them.
    The output loads in https://ui.perfetto.dev and in [chrome://tracing]. *)

val to_json :
  ?process_name:string ->
  clock:Flight.clock ->
  tracks:string array ->
  ?segments:Xinv_sim.Trace.segment list ->
  Flight.entry list ->
  string
(** [tracks] names the tracks; [segments] (a simulated run's engine trace)
    become duration events categorized by engine charge. *)
