module Obs = Xinv_obs

type fault = Crash_before_rename | Torn_write

(* Counters live in a {!Obs.Metrics} registry — the attached recorder's
   when there is one (so `xinv stats` and OpenMetrics expositions see them
   for free), a private registry otherwise.  Handles are pre-registered
   here; the operational paths do O(1) bumps. *)
type t = {
  dir : string;
  max_bytes : int;
  metrics : Obs.Metrics.t;
  c_evict : Obs.Metrics.counter;
  c_quarantine : Obs.Metrics.counter;
  c_store : Obs.Metrics.counter;
  c_io_error : Obs.Metrics.counter;
  mutable injected : fault option;
  mutable tmp_seq : int;
}

let default_dir () =
  match Sys.getenv_opt "XDG_CACHE_HOME" with
  | Some d when d <> "" -> Filename.concat d "xinv"
  | _ -> (
      match Sys.getenv_opt "HOME" with
      | Some h when h <> "" -> Filename.concat (Filename.concat h ".cache") "xinv"
      | _ -> Filename.concat (Filename.get_temp_dir_name ()) "xinv-cache")

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let is_entry f = Filename.check_suffix f ".xc"
let is_quarantined f = Filename.check_suffix f ".quarantined"

let is_tmp f =
  (* tmp files are named <hex>.xc.tmp.<pid>.<seq> *)
  let rec has_tmp_part f =
    let b = Filename.basename f in
    if Filename.extension b = ".tmp" then true
    else
      let r = Filename.remove_extension b in
      r <> b && has_tmp_part r
  in
  has_tmp_part f

let listing dir =
  match Sys.readdir dir with exception Sys_error _ -> [||] | fs -> fs

let open_ ?obs ?(max_bytes = 256 * 1024 * 1024) ~dir () =
  (try mkdir_p dir with _ -> ());
  (* Sweep tmp files abandoned by writers that crashed before publishing:
     they are invisible to readers but would leak disk forever. *)
  Array.iter
    (fun f -> if is_tmp f then try Sys.remove (Filename.concat dir f) with _ -> ())
    (listing dir);
  let metrics =
    match obs with
    | Some r -> Obs.Recorder.metrics r
    | None -> Obs.Metrics.create ()
  in
  {
    dir;
    max_bytes;
    metrics;
    c_evict = Obs.Metrics.counter metrics "cache.evict";
    c_quarantine = Obs.Metrics.counter metrics "cache.quarantine";
    c_store = Obs.Metrics.counter metrics "cache.store";
    c_io_error = Obs.Metrics.counter metrics "cache.io_error";
    injected = None;
    tmp_seq = 0;
  }

let dir t = t.dir
let metrics t = t.metrics
let evictions t = t.c_evict.Obs.Metrics.c_value
let invalidated t = t.c_quarantine.Obs.Metrics.c_value
let stores t = t.c_store.Obs.Metrics.c_value
let inject t f = t.injected <- f

let entry_path t fp = Filename.concat t.dir (Fingerprint.to_hex fp ^ ".xc")

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      let r =
        try
          let n = in_channel_length ic in
          Some (really_input_string ic n)
        with _ -> None
      in
      close_in_noerr ic;
      r

let quarantine t path =
  Obs.Metrics.incr t.c_quarantine;
  (try Sys.rename path (path ^ ".quarantined")
   with _ -> ( (* last resort: a bad entry must not keep shadowing the slot *)
     try Sys.remove path with _ -> Obs.Metrics.incr t.c_io_error))

let load t fp =
  let path = entry_path t fp in
  match read_file path with
  | None -> Error "absent"
  | Some raw -> (
      match Artifact.decode raw with
      | Ok a -> Ok a
      | Error "version" as stale ->
          (* Written by an older schema: intact, merely outdated.  A miss
             that the next [save] overwrites in place, not corruption. *)
          stale
      | Error reason ->
          quarantine t path;
          Error reason)

(* Oldest-first eviction down to the size cap.  Races with concurrent
   evictors are benign: a stat or remove that loses the race is skipped. *)
let enforce_cap t =
  let entries =
    listing t.dir |> Array.to_list
    |> List.filter_map (fun f ->
           if not (is_entry f) then None
           else
             let p = Filename.concat t.dir f in
             match Unix.stat p with
             | exception _ -> None
             | st -> Some (p, st.Unix.st_size, st.Unix.st_mtime))
  in
  let total = List.fold_left (fun acc (_, sz, _) -> acc + sz) 0 entries in
  if total > t.max_bytes then begin
    let oldest_first =
      List.sort (fun (_, _, a) (_, _, b) -> compare a b) entries
    in
    let excess = ref (total - t.max_bytes) in
    List.iter
      (fun (p, sz, _) ->
        if !excess > 0 then
          match Sys.remove p with
          | () ->
              excess := !excess - sz;
              Obs.Metrics.incr t.c_evict
          | exception _ -> ())
      oldest_first
  end

let save t fp art =
  let path = entry_path t fp in
  t.tmp_seq <- t.tmp_seq + 1;
  let tmp = Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ()) t.tmp_seq in
  let raw = Artifact.encode art in
  let fault = t.injected in
  if fault <> None then t.injected <- None;
  match open_out_bin tmp with
  | exception Sys_error _ -> Obs.Metrics.incr t.c_io_error
  | oc -> (
      match fault with
      | Some Torn_write ->
          (* Writer dies mid-payload: a torn tmp file is left behind, the
             entry slot stays untouched. *)
          output_string oc (String.sub raw 0 (String.length raw / 2));
          close_out_noerr oc
      | Some Crash_before_rename ->
          (* Writer dies after the write but before publication. *)
          output_string oc raw;
          close_out_noerr oc
      | None -> (
          let ok =
            try
              output_string oc raw;
              close_out oc;
              true
            with Sys_error _ ->
              close_out_noerr oc;
              false
          in
          if not ok then begin
            Obs.Metrics.incr t.c_io_error;
            try Sys.remove tmp with _ -> ()
          end
          else
            match Sys.rename tmp path with
            | () ->
                Obs.Metrics.incr t.c_store;
                enforce_cap t
            | exception _ ->
                Obs.Metrics.incr t.c_io_error;
                (try Sys.remove tmp with _ -> ())))

(* Directory-level maintenance for the CLI. *)

type entry_info = { e_fp : string; e_bytes : int; e_mtime : float }

let ls ~dir =
  listing dir |> Array.to_list
  |> List.filter_map (fun f ->
         if not (is_entry f) then None
         else
           let p = Filename.concat dir f in
           match Unix.stat p with
           | exception _ -> None
           | st ->
               Some
                 {
                   e_fp = Filename.chop_suffix f ".xc";
                   e_bytes = st.Unix.st_size;
                   e_mtime = st.Unix.st_mtime;
                 })
  |> List.sort (fun a b -> compare a.e_mtime b.e_mtime)

type stats = {
  s_entries : int;
  s_bytes : int;
  s_quarantined : int;
  s_tmp : int;
}

let stats ~dir =
  Array.fold_left
    (fun acc f ->
      let p = Filename.concat dir f in
      if is_entry f then
        let sz = match Unix.stat p with exception _ -> 0 | st -> st.Unix.st_size in
        { acc with s_entries = acc.s_entries + 1; s_bytes = acc.s_bytes + sz }
      else if is_quarantined f then
        { acc with s_quarantined = acc.s_quarantined + 1 }
      else if is_tmp f then { acc with s_tmp = acc.s_tmp + 1 }
      else acc)
    { s_entries = 0; s_bytes = 0; s_quarantined = 0; s_tmp = 0 }
    (listing dir)

let clear ~dir =
  Array.fold_left
    (fun removed f ->
      if is_entry f || is_quarantined f || is_tmp f then (
        let was_entry = is_entry f in
        match Sys.remove (Filename.concat dir f) with
        | () -> if was_entry then removed + 1 else removed
        | exception _ -> removed)
      else removed)
    0 (listing dir)
