type thread_report = {
  tid : int;
  thread_name : string;
  events : int;
  work : float;
  stall : float;
  utilization : float;
  dominant : Cause.t option;
}

type percentiles = { p50 : float; p90 : float; p99 : float; pmax : float }

type t = {
  backend : string;
  clock : Flight.clock;
  makespan : float;
  threads : int;
  utilization : float;
  per_thread : thread_report list;
  stall_by_cause : (Cause.t * float) list;
  dominant_stall : Cause.t option;
  bottleneck : string;
  chain : int;
  chain_span : float;
  events_logged : int;
  drops : int;
  queue_occupancy : percentiles option;
  counters : (string * int) list;
  gauges : (string * float) list;
}

let pct part whole = if whole > 0. then 100. *. part /. whole else 0.

(* Nearest rank: the smallest sample with at least [q] of the samples at or
   below it. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    sorted.(Stdlib.max 0 (Stdlib.min (n - 1) (rank - 1)))

(* The largest positive total; ties go to the earlier cause. *)
let dominant totals =
  List.fold_left
    (fun acc (c, v) ->
      match acc with
      | Some (_, bv) when bv >= v -> acc
      | _ -> if v > 0. then Some (c, v) else acc)
    None totals

(* Longest-chain DP over the timestamp-ordered stream.  Edges worth one
   chain step: a dispatch consumed by the target track's next event, a
   sync-recv back to the source track's frontier, and an epoch commit
   extending its own track's chain.  Plain same-track succession propagates
   chain length without adding an edge. *)
let longest_chain ntracks (es : Flight.entry array) =
  let n = Array.length es in
  let chainlen = Array.make (Stdlib.max n 1) 0 in
  let chainstart = Array.make (Stdlib.max n 1) 0 in
  let last = Array.make ntracks (-1) in
  let pend = Array.make ntracks (-1) in
  let best = ref 0 and best_span = ref 0. in
  for i = 0 to n - 1 do
    let e = es.(i) in
    let d = e.Flight.f_domain in
    let len = ref 0 and start = ref e.Flight.f_at in
    let consider p w =
      if p >= 0 then begin
        let cl = chainlen.(p) + w in
        if cl > !len || (cl = !len && chainstart.(p) < !start) then begin
          len := cl;
          start := chainstart.(p)
        end
      end
    in
    consider last.(d) (match e.Flight.f_kind with Flight.Epoch_commit -> 1 | _ -> 0);
    (match e.Flight.f_kind with
    | Flight.Sync_recv ->
        let src = e.Flight.f_b in
        if src >= 0 && src < ntracks then consider last.(src) 1
    | _ -> ());
    if pend.(d) >= 0 then begin
      consider pend.(d) 1;
      pend.(d) <- -1
    end;
    chainlen.(i) <- !len;
    chainstart.(i) <- !start;
    (match e.Flight.f_kind with
    | Flight.Dispatch ->
        let tgt = e.Flight.f_b in
        if tgt >= 0 && tgt < ntracks then pend.(tgt) <- i
    | _ -> ());
    last.(d) <- i;
    if !len > !best then begin
      best := !len;
      best_span := float_of_int (e.Flight.f_at - !start)
    end
  done;
  (!best, !best_span)

let build ~backend ~clock ~makespan ~tracks ?work ?blocked ?(counters = [])
    ?(gauges = []) ?(drops = 0) entries =
  let es = Array.of_list entries in
  Array.stable_sort (fun a b -> compare a.Flight.f_at b.Flight.f_at) es;
  let n = Array.length tracks in
  let blocked_on = Array.make_matrix n Cause.count 0. in
  let events = Array.make n 0 in
  let samples = ref [] in
  Array.iter
    (fun (e : Flight.entry) ->
      let d = e.Flight.f_domain in
      events.(d) <- events.(d) + 1;
      match e.Flight.f_kind with
      | Flight.Stall_end ->
          if e.Flight.f_a >= 0 && e.Flight.f_a < Cause.count then
            blocked_on.(d).(e.Flight.f_a) <-
              blocked_on.(d).(e.Flight.f_a) +. float_of_int e.Flight.f_b
      | Flight.Queue_sample -> samples := float_of_int e.Flight.f_b :: !samples
      | _ -> ())
    es;
  let per_cause row = List.map (fun c -> (c, row (Cause.index c))) Cause.all in
  let stall_by_cause =
    match blocked with
    | Some kvs ->
        List.map
          (fun c -> (c, Option.value ~default:0. (List.assoc_opt (Cause.name c) kvs)))
          Cause.all
    | None ->
        per_cause (fun i ->
            Array.fold_left (fun acc row -> acc +. row.(i)) 0. blocked_on)
  in
  let per_thread =
    List.init n (fun tid ->
        let stall = Array.fold_left ( +. ) 0. blocked_on.(tid) in
        let work =
          match work with
          | Some w -> w.(tid)
          | None -> Float.max 0. (makespan -. stall)
        in
        {
          tid;
          thread_name = tracks.(tid);
          events = events.(tid);
          work;
          stall;
          utilization = (if makespan > 0. then work /. makespan else 0.);
          dominant = Option.map fst (dominant (per_cause (fun i -> blocked_on.(tid).(i))));
        })
  in
  let capacity = float_of_int n *. makespan in
  let utilization =
    if capacity <= 0. then 0.
    else
      match work with
      | Some w -> Array.fold_left ( +. ) 0. w /. capacity
      | None -> 1. -. (List.fold_left (fun acc (_, v) -> acc +. v) 0. stall_by_cause /. capacity)
  in
  let dominant_stall = dominant stall_by_cause in
  let bottleneck =
    match dominant_stall with
    | Some (c, v) when pct v capacity >= 5. ->
        Printf.sprintf "%s (%.1f%% of %d-thread capacity blocked)" (Cause.name c)
          (pct v capacity) n
    | Some (c, v) ->
        Printf.sprintf "compute (dominant stall %s at only %.1f%% of capacity)"
          (Cause.name c) (pct v capacity)
    | None -> "compute (no stalls recorded)"
  in
  let chain, chain_span = longest_chain n es in
  let queue_occupancy =
    match !samples with
    | [] -> None
    | l ->
        let arr = Array.of_list l in
        Array.sort compare arr;
        Some
          {
            p50 = percentile arr 0.50;
            p90 = percentile arr 0.90;
            p99 = percentile arr 0.99;
            pmax = arr.(Array.length arr - 1);
          }
  in
  {
    backend;
    clock;
    makespan;
    threads = n;
    utilization;
    per_thread;
    stall_by_cause;
    dominant_stall = Option.map fst dominant_stall;
    bottleneck;
    chain;
    chain_span;
    events_logged = Array.length es;
    drops;
    queue_occupancy;
    counters;
    gauges;
  }

let of_flight ?wall_ns ?blocked ?counters ?gauges fl =
  build ~backend:"native" ~clock:Flight.Ns
    ~makespan:(match wall_ns with Some w -> w | None -> float_of_int (Flight.elapsed_ns fl))
    ~tracks:(Flight.tracks fl)
    ?blocked ?counters ?gauges ~drops:(Flight.total_drops fl) (Flight.entries fl)

(* Ticks in the unit a reader expects: cycles as counted, wall time in ms. *)
let amount clock x =
  match clock with
  | Flight.Cycles -> Printf.sprintf "%.0f cycles" x
  | Flight.Ns -> Printf.sprintf "%.3f ms" (x /. 1e6)

let pp ppf t =
  let capacity = float_of_int t.threads *. t.makespan in
  let amount = amount t.clock in
  Format.fprintf ppf "@[<v>%s backend: makespan %s, %d threads, %d events logged (%d dropped)@,"
    t.backend (amount t.makespan) t.threads t.events_logged t.drops;
  Format.fprintf ppf "utilization      %.1f%%@," (100. *. t.utilization);
  Format.fprintf ppf "bottleneck: %s@," t.bottleneck;
  Format.fprintf ppf "critical path: %d edges spanning %s@," t.chain (amount t.chain_span);
  Format.fprintf ppf "worker stall time by cause (%% of capacity):@,";
  List.iter
    (fun (c, v) ->
      Format.fprintf ppf "  %-12s %18s  (%4.1f%%)@," (Cause.name c) (amount v) (pct v capacity))
    t.stall_by_cause;
  (match t.queue_occupancy with
  | Some q ->
      Format.fprintf ppf "queue occupancy  p50 %.0f  p90 %.0f  p99 %.0f  max %.0f@,"
        q.p50 q.p90 q.p99 q.pmax
  | None -> ());
  Format.fprintf ppf "per-thread (work%% / stall%% of makespan, dominant stall):@,";
  List.iter
    (fun tr ->
      Format.fprintf ppf "  t%-3d %-12s %5.1f%% / %5.1f%%  %s@," tr.tid tr.thread_name
        (pct tr.work t.makespan) (pct tr.stall t.makespan)
        (match tr.dominant with Some c -> Cause.name c | None -> "-"))
    t.per_thread;
  if t.counters <> [] then begin
    Format.fprintf ppf "counters:@,";
    List.iter (fun (k, v) -> Format.fprintf ppf "  %-36s %d@," k v) t.counters
  end;
  if t.gauges <> [] then begin
    Format.fprintf ppf "gauges:@,";
    List.iter (fun (k, v) -> Format.fprintf ppf "  %-36s %.1f@," k v) t.gauges
  end;
  Format.fprintf ppf "@]"

let fnum f = if Float.is_nan f then "null" else Printf.sprintf "%.3f" f

let str = Json.str

let obj kvs =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%s: %s" (str k) v) kvs) ^ "}"

let to_json t =
  let thread tr =
    obj
      [
        ("tid", string_of_int tr.tid);
        ("name", str tr.thread_name);
        ("events", string_of_int tr.events);
        ("work", fnum tr.work);
        ("stall", fnum tr.stall);
        ("utilization", fnum tr.utilization);
        ("dominant_stall", match tr.dominant with Some c -> str (Cause.name c) | None -> "null");
      ]
  in
  let fields =
    [
      ("schema", str "xinv-stats/4");
      ("backend", str t.backend);
      ("clock", str (Flight.clock_name t.clock));
      ("makespan", fnum t.makespan);
      ("threads", string_of_int t.threads);
      ("utilization", fnum t.utilization);
      ("events_logged", string_of_int t.events_logged);
      ("drops", string_of_int t.drops);
      ("stall_by_cause", obj (List.map (fun (c, v) -> (Cause.name c, fnum v)) t.stall_by_cause));
      ( "dominant_stall",
        match t.dominant_stall with Some c -> str (Cause.name c) | None -> "null" );
      ("bottleneck", str t.bottleneck);
      ( "critical_path",
        obj [ ("edges", string_of_int t.chain); ("span", fnum t.chain_span) ] );
      ( "queue_occupancy",
        match t.queue_occupancy with
        | None -> "null"
        | Some q ->
            obj [ ("p50", fnum q.p50); ("p90", fnum q.p90); ("p99", fnum q.p99); ("max", fnum q.pmax) ]
      );
      ("per_thread", "[\n    " ^ String.concat ",\n    " (List.map thread t.per_thread) ^ "\n  ]");
      ("counters", obj (List.map (fun (k, v) -> (k, string_of_int v)) t.counters));
      ("gauges", obj (List.map (fun (k, v) -> (k, fnum v)) t.gauges));
    ]
  in
  "{\n"
  ^ String.concat ",\n" (List.map (fun (k, v) -> Printf.sprintf "  %s: %s" (str k) v) fields)
  ^ "\n}\n"

let to_csv t =
  let b = Buffer.create 1024 in
  let line k v = Buffer.add_string b (Printf.sprintf "%s,%s\n" k v) in
  line "key" "value";
  line "backend" t.backend;
  line "clock" (Flight.clock_name t.clock);
  line "makespan" (Printf.sprintf "%.3f" t.makespan);
  line "threads" (string_of_int t.threads);
  line "utilization" (Printf.sprintf "%.4f" t.utilization);
  line "events_logged" (string_of_int t.events_logged);
  line "drops" (string_of_int t.drops);
  List.iter
    (fun (c, v) -> line ("stall." ^ Cause.name c) (Printf.sprintf "%.3f" v))
    t.stall_by_cause;
  line "dominant_stall"
    (match t.dominant_stall with Some c -> Cause.name c | None -> "");
  line "critical_path.edges" (string_of_int t.chain);
  line "critical_path.span" (Printf.sprintf "%.3f" t.chain_span);
  (match t.queue_occupancy with
  | Some q ->
      line "queue_occupancy.p50" (Printf.sprintf "%.0f" q.p50);
      line "queue_occupancy.p90" (Printf.sprintf "%.0f" q.p90);
      line "queue_occupancy.p99" (Printf.sprintf "%.0f" q.p99);
      line "queue_occupancy.max" (Printf.sprintf "%.0f" q.pmax)
  | None -> ());
  List.iter (fun (k, v) -> line ("counter." ^ k) (string_of_int v)) t.counters;
  List.iter (fun (k, v) -> line ("gauge." ^ k) (Printf.sprintf "%.3f" v)) t.gauges;
  Buffer.contents b
