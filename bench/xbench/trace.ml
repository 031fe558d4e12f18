(* In-memory spans recorded by the benchmark around its calls into each
   layer, written out as Chrome trace-event JSON (loadable in Perfetto) when
   the run ends.

   A request is one root span around the call that serves it.  Its layer
   spans come from replaying the request's pipeline, layer by layer, just
   before the call; they carry the root as parent.  Path spans are the
   layers the request itself goes through, and their durations plus the
   request's residual sum to the root's wall time.  Probe spans time a
   layer the request bypasses (a fresh analysis when the request replays a
   cached one, say), so that every layer is measured on every workload;
   they do not enter the sum. *)

type span = {
  id : int;
  name : string;  (** ["<layer>.<operation>"] *)
  req : int;
  parent : int;  (** -1 for a request's root *)
  path : bool;
  t0 : float;
  t1 : float;  (** seconds, [Unix.gettimeofday] *)
}

type t = { mutable spans : span list; mutable next : int }

let create () = { spans = []; next = 0 }

let layer_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let dur s = s.t1 -. s.t0

(* A request's id is reserved before its pipeline is replayed, so the layer
   spans can name it as their parent; the root itself is recorded last. *)
let reserve t =
  let id = t.next in
  t.next <- id + 1;
  id

let add t ?id ~name ~req ~parent ~path t0 t1 =
  let id = match id with Some id -> id | None -> reserve t in
  t.spans <- { id; name; req; parent; path; t0; t1 } :: t.spans

let span t ~name ~req ~parent ~path f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  add t ~name ~req ~parent ~path t0 (Unix.gettimeofday ());
  r

let spans t = List.rev t.spans
let roots t = List.filter (fun s -> s.parent < 0) (spans t)

(* Durations in ms of every span with this name. *)
let durations_ms t name =
  List.filter_map
    (fun s -> if s.name = name then Some (dur s *. 1e3) else None)
    (spans t)

(* Each request's wall time not covered by its path spans, by root id. *)
let residuals t =
  let covered = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 && s.path then
        Hashtbl.replace covered s.parent
          (dur s +. Option.value ~default:0. (Hashtbl.find_opt covered s.parent)))
    t.spans;
  List.map
    (fun r ->
      (r, dur r -. Option.value ~default:0. (Hashtbl.find_opt covered r.id)))
    (roots t)

(* Per-layer self time over all requests: (name, spans, total s), then the
   residual and the requests' total.  Path spans have no children, so a
   span's self time is its duration. *)
let table t =
  let rows = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun s ->
      if s.parent >= 0 && s.path then begin
        (match Hashtbl.find_opt rows s.name with
        | None ->
            order := s.name :: !order;
            Hashtbl.replace rows s.name (1, dur s)
        | Some (n, d) -> Hashtbl.replace rows s.name (n + 1, d +. dur s))
      end)
    (spans t);
  let rs = residuals t in
  let total = Sample.sum (List.map (fun (r, _) -> dur r) rs) in
  let residual = Sample.sum (List.map snd rs) in
  ( List.rev_map (fun n -> let c, d = Hashtbl.find rows n in (n, c, d)) !order,
    residual,
    total )

let print_table t =
  let rows, residual, total = table t in
  let pct x = if total > 0. then 100. *. x /. total else 0. in
  Printf.printf "  %-28s %7s %12s %7s\n" "layer span (self time)" "spans"
    "total ms" "share";
  List.iter
    (fun (n, c, d) ->
      Printf.printf "  %-28s %7d %12.3f %6.1f%%\n" n c (d *. 1e3) (pct d))
    rows;
  Printf.printf "  %-28s %7s %12.3f %6.1f%%\n" "residual" "" (residual *. 1e3)
    (pct residual);
  Printf.printf "  %-28s %7d %12.3f %6.1f%%\n" "request wall (sum)"
    (List.length (roots t)) (total *. 1e3)
    (pct (Sample.sum (List.map (fun (_, _, d) -> d) rows) +. residual))

(* Chrome trace-event JSON: requests on track 1, the replayed path on
   track 2, probes on track 3. *)
let to_json t =
  let origin =
    List.fold_left (fun acc s -> Float.min acc s.t0) infinity (spans t)
  in
  let residual = Hashtbl.create 64 in
  List.iter (fun (r, x) -> Hashtbl.replace residual r.id x) (residuals t);
  let us x = Json.Num (Float.round ((x -. origin) *. 1e9) /. 1e3) in
  let tid s = if s.parent < 0 then 1 else if s.path then 2 else 3 in
  let thread_name tid name =
    Json.Obj
      [ ("name", Str "thread_name"); ("ph", Str "M"); ("pid", Num 1.);
        ("tid", Num (float_of_int tid)); ("args", Obj [ ("name", Str name) ]) ]
  in
  let event s =
    Json.Obj
      [
        ("name", Str s.name);
        ("cat", Str (layer_of s.name));
        ("ph", Str "X");
        ("ts", us s.t0);
        ("dur", Num (Float.round (dur s *. 1e6 *. 1e3) /. 1e3));
        ("pid", Num 1.);
        ("tid", Num (float_of_int (tid s)));
        ( "args",
          Obj
            ([
               ("id", Json.Num (float_of_int s.id));
               ("req", Num (float_of_int s.req));
               ("parent", Num (float_of_int s.parent));
               ("path", Bool s.path);
             ]
            @
            match Hashtbl.find_opt residual s.id with
            | Some x -> [ ("residual_us", Json.Num (x *. 1e6)) ]
            | None -> []) );
      ]
  in
  Json.Obj
    [
      ( "traceEvents",
        Arr
          (thread_name 1 "requests" :: thread_name 2 "replayed path"
          :: thread_name 3 "probes" :: List.map event (spans t)) );
      ("displayTimeUnit", Str "ms");
    ]
