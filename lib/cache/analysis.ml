module Ir = Xinv_ir
module Obs = Xinv_obs

type mode = [ `Ro | `Rw ]

type t = {
  store : Store.t;
  mode : mode;
  obs : Obs.Recorder.t option;
  (* Registered in the store's registry — the recorder's when one is
     attached — so cache.hit/cache.miss sit next to the store's own
     counters in every exposition. *)
  c_hit : Obs.Metrics.counter;
  c_miss : Obs.Metrics.counter;
  mutable hits : int;
  mutable misses : int;
}

let make ?obs ?max_bytes ?dir ~mode () =
  let dir = match dir with Some d -> d | None -> Store.default_dir () in
  let store = Store.open_ ?obs ?max_bytes ~dir () in
  let m = Store.metrics store in
  {
    store;
    mode;
    obs;
    c_hit = Obs.Metrics.counter m "cache.hit";
    c_miss = Obs.Metrics.counter m "cache.miss";
    hits = 0;
    misses = 0;
  }

let store t = t.store
let mode t = t.mode
let hits t = t.hits
let misses t = t.misses

let record t ev =
  match t.obs with
  | None -> ()
  | Some r -> Obs.Recorder.record r ~at:(Unix.gettimeofday ()) ~tid:0 ev

let hit t fp =
  t.hits <- t.hits + 1;
  Obs.Metrics.incr t.c_hit;
  record t (Obs.Event.Fingerprint_hit { fp = Fingerprint.to_hex fp })

let miss t fp reason =
  t.misses <- t.misses + 1;
  Obs.Metrics.incr t.c_miss;
  record t (Obs.Event.Fingerprint_miss { fp = Fingerprint.to_hex fp; reason })

(* A usable artifact: valid on disk and written for these names (two
   programs that are renamings of each other share a fingerprint; replaying
   across the alias would wire the plan to the wrong arrays). *)
let lookup t fp names =
  match Store.load t.store fp with
  | Ok a when a.Artifact.names = names -> Ok a
  | Ok _ -> Error "alias"
  | Error reason -> Error reason

let merge_save t fp names update =
  if t.mode = `Rw then begin
    let base =
      match lookup t fp names with Ok a -> a | Error _ -> Artifact.empty ~names
    in
    Store.save t.store fp (update base)
  end

let plan _ p env = Ir.Mtcg.generate p env

let bump_policy_counter t name =
  Obs.Metrics.incr (Obs.Metrics.counter (Store.metrics t.store) name)

let cached_policy t p env =
  let fp, names = Fingerprint.keyed p env in
  match lookup t fp names with
  | Ok { Artifact.policy = Some tuned; _ } ->
      bump_policy_counter t "policy.cache.hit";
      record t (Obs.Event.Fingerprint_hit { fp = Fingerprint.to_hex fp });
      Some tuned
  | Ok _ ->
      bump_policy_counter t "policy.cache.miss";
      None
  | Error why ->
      bump_policy_counter t "policy.cache.miss";
      record t
        (Obs.Event.Fingerprint_miss { fp = Fingerprint.to_hex fp; reason = why });
      None

let store_policy t p env tuned =
  let fp, names = Fingerprint.keyed p env in
  merge_save t fp names (fun a -> { a with Artifact.policy = Some tuned })

let profile t p env =
  let fp, names = Fingerprint.keyed p env in
  let fresh why =
    miss t fp why;
    let pr = Xinv_speccross.Profiler.profile p env in
    merge_save t fp names (fun a -> { a with Artifact.profile = Some pr });
    pr
  in
  match lookup t fp names with
  | Ok { Artifact.profile = Some pr; _ } ->
      hit t fp;
      pr
  | Ok _ -> fresh "partial"
  | Error why -> fresh why
