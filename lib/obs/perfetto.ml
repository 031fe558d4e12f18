module Sim = Xinv_sim

(* All numbers as plain floats: trace_event timestamps are microseconds and
   fractional values are accepted by both importers. *)
let num f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.3f" f

let str = Json.str

let to_json ?(process_name = "crossinv") ~clock ~tracks ?(segments = []) entries =
  let b = Buffer.create 65536 in
  let first = ref true in
  let event fmt =
    if !first then first := false else Buffer.add_string b ",\n";
    Buffer.add_string b "    {";
    Printf.kbprintf (fun b -> Buffer.add_char b '}') b fmt
  in
  (* Simulated cycles are exported one per microsecond. *)
  let us ticks =
    match clock with Flight.Cycles -> ticks | Flight.Ns -> ticks /. 1e3
  in
  let at (e : Flight.entry) = num (us (float_of_int e.Flight.f_at)) in
  Buffer.add_string b "{\n  \"traceEvents\": [\n";
  event "\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"ts\":0,\"args\":{\"name\":%s}"
    (str process_name);
  Array.iteri
    (fun tid name ->
      event
        "\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"ts\":0,\"args\":{\"name\":%s}"
        tid (str name))
    tracks;
  List.iter
    (fun (seg : Sim.Trace.segment) ->
      event "\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"ts\":%s,\"dur\":%s,\"pid\":0,\"tid\":%d"
        (str seg.Sim.Trace.label)
        (str (Sim.Category.to_string seg.Sim.Trace.cat))
        (num seg.Sim.Trace.t_start)
        (num (seg.Sim.Trace.t_end -. seg.Sim.Trace.t_start))
        seg.Sim.Trace.tid)
    segments;
  List.iter
    (fun (e : Flight.entry) ->
      match e.Flight.f_kind with
      | Flight.Stall_end ->
          (* The span starts where the stall began. *)
          event
            "\"name\":%s,\"cat\":\"stall\",\"ph\":\"X\",\"ts\":%s,\"dur\":%s,\"pid\":0,\"tid\":%d"
            (str
               ("stall:"
               ^ match Cause.of_index e.Flight.f_a with Some c -> Cause.name c | None -> "unknown"))
            (num (us (float_of_int (e.Flight.f_at - e.Flight.f_b))))
            (num (us (float_of_int e.Flight.f_b)))
            e.Flight.f_domain
      | Flight.Stall_begin -> ()
      | Flight.Queue_sample ->
          event "\"name\":\"queue%d\",\"ph\":\"C\",\"ts\":%s,\"pid\":0,\"tid\":%d,\"args\":{\"len\":%d}"
            e.Flight.f_a (at e) e.Flight.f_domain e.Flight.f_b
      | k ->
          event
            "\"name\":%s,\"ph\":\"i\",\"s\":\"t\",\"ts\":%s,\"pid\":0,\"tid\":%d,\"args\":{\"a\":%d,\"b\":%d}"
            (str (Flight.kind_name k))
            (at e) e.Flight.f_domain e.Flight.f_a e.Flight.f_b)
    entries;
  Buffer.add_string b "\n  ],\n  \"displayTimeUnit\": \"ms\"\n}\n";
  Buffer.contents b
