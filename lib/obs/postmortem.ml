let tail_per_domain = 32

let render ~workload ~technique ~attempt ~reason ~event ?degraded_to ?counters
    ?flight () =
  let b = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "# xinv-postmortem/1";
  line "workload: %s" workload;
  line "technique: %s" technique;
  line "backend: native";
  line "attempt: %d" attempt;
  line "reason: %s" reason;
  line "event: %s" event;
  (match degraded_to with Some t -> line "degraded-to: %s" t | None -> ());
  let report = Option.map (fun f -> Report.of_flight f) flight in
  line "flight-events: %d"
    (match report with Some r -> r.Report.events_logged | None -> 0);
  line "flight-drops: %d" (match report with Some r -> r.Report.drops | None -> 0);
  (* Always list every cause: attribution stays parseable and non-empty even
     when the fault fired before any wait blocked. *)
  line "stall-attribution:";
  List.iter
    (fun c ->
      line "  %-12s %.0f" (Cause.name c)
        (match report with
        | Some r -> List.assoc c r.Report.stall_by_cause
        | None -> 0.))
    Cause.all;
  (match report with
  | Some r ->
      line "bottleneck: %s" r.Report.bottleneck;
      line "critical-path: %d edges %.0f ns" r.Report.chain r.Report.chain_span
  | None -> line "bottleneck: unknown (no flight recording)");
  (match counters with
  | Some cs when cs <> [] ->
      line "counters:";
      List.iter (fun (name, v) -> line "  %-24s %d" name v) cs
  | _ -> ());
  (match flight with
  | Some f ->
      line "events:";
      for d = 0 to Flight.domains f - 1 do
        let es = Flight.read f ~domain:d in
        let n = List.length es in
        let es =
          if n > tail_per_domain then
            List.filteri (fun i _ -> i >= n - tail_per_domain) es
          else es
        in
        List.iter
          (fun (e : Flight.entry) ->
            line "  +%dns d%d %s a=%d b=%d" e.Flight.f_at e.Flight.f_domain
              (Flight.kind_name e.Flight.f_kind)
              e.Flight.f_a e.Flight.f_b)
          es
      done
  | None -> ());
  line "# end";
  Buffer.contents b

let rec mkdir_p dir =
  if dir <> "/" && dir <> "." && dir <> "" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

let write ~dir ~base ~workload ~technique ~attempt ~reason ~event ?degraded_to
    ?counters ?flight () =
  mkdir_p dir;
  let txt = Filename.concat dir (base ^ ".txt") in
  write_file txt
    (render ~workload ~technique ~attempt ~reason ~event ?degraded_to ?counters
       ?flight ());
  let trace =
    match flight with
    | Some f ->
        let path = Filename.concat dir (base ^ ".trace.json") in
        write_file path (Perfetto.to_json ~process_name:"crossinv-native" ~clock:Flight.Ns
            ~tracks:(Flight.tracks f) (Flight.entries f));
        Some path
    | None -> None
  in
  (txt, trace)
