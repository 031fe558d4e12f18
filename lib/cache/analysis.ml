module Ir = Xinv_ir
module Obs = Xinv_obs

type mode = [ `Ro | `Rw ]

type t = {
  store : Store.t;
  mode : mode;
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
    c_hit = Obs.Metrics.counter m "cache.hit";
    c_miss = Obs.Metrics.counter m "cache.miss";
    hits = 0;
    misses = 0;
  }

let store t = t.store
let mode t = t.mode
let hits t = t.hits
let misses t = t.misses

let hit t =
  t.hits <- t.hits + 1;
  Obs.Metrics.incr t.c_hit

let miss t =
  t.misses <- t.misses + 1;
  Obs.Metrics.incr t.c_miss

(* A usable artifact: valid on disk and written for these names (two
   programs that are renamings of each other share a fingerprint; replaying
   across the alias would wire the plan to the wrong arrays). *)
let lookup t fp names =
  match Store.load t.store fp with
  | Ok a when a.Artifact.names = names -> Some a
  | Ok _ | Error _ -> None

let merge_save t fp names update =
  if t.mode = `Rw then begin
    let base =
      match lookup t fp names with Some a -> a | None -> Artifact.empty ~names
    in
    Store.save t.store fp (update base)
  end

let plan _ p env = Ir.Mtcg.generate p env

let bump_policy_counter t name =
  Obs.Metrics.incr (Obs.Metrics.counter (Store.metrics t.store) name)

let cached_policy t p env =
  let fp, names = Fingerprint.keyed p env in
  match lookup t fp names with
  | Some { Artifact.policy = Some tuned; _ } ->
      bump_policy_counter t "policy.cache.hit";
      Some tuned
  | Some _ | None ->
      bump_policy_counter t "policy.cache.miss";
      None

let store_policy t p env tuned =
  let fp, names = Fingerprint.keyed p env in
  merge_save t fp names (fun a -> { a with Artifact.policy = Some tuned })

let profile t p env =
  let fp, names = Fingerprint.keyed p env in
  let fresh () =
    miss t;
    let pr = Xinv_speccross.Profiler.profile p env in
    merge_save t fp names (fun a -> { a with Artifact.profile = Some pr });
    pr
  in
  match lookup t fp names with
  | Some { Artifact.profile = Some pr; _ } ->
      hit t;
      pr
  | Some _ | None -> fresh ()
