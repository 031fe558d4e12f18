type t = {
  technique : string;
  domains : int;
  workers : int;
  wall_ns : float;
  tasks : int;
  invocations : int;
  conds : int;
  checks : int;
  misspecs : int;
  barrier_episodes : int;
  checkpoints : int;
  epochs_redone : int;
  recovery_time : int;
  signatures_compared : int;
  stalls : (string * float) list;
}

let make ~technique ~domains ~workers ~wall_ns ~tasks ~invocations ?(conds = 0)
    ?(checks = 0) ?(misspecs = 0) ?(barrier_episodes = 0) ?(checkpoints = 0)
    ?(epochs_redone = 0) ?(recovery_time = 0) ?(signatures_compared = 0) ?(stalls = []) () =
  { technique; domains; workers; wall_ns; tasks; invocations; conds; checks;
    misspecs; barrier_episodes; checkpoints; epochs_redone; recovery_time;
    signatures_compared; stalls }

let timed f =
  let t0 = Unix.gettimeofday () in
  f ();
  1e9 *. (Unix.gettimeofday () -. t0)

let speedup ~seq_wall_ns t = if t.wall_ns <= 0. then 1.0 else seq_wall_ns /. t.wall_ns

let dominant_stall t =
  match
    List.fold_left
      (fun acc (k, v) ->
        match acc with Some (_, bv) when bv >= v -> acc | _ -> Some (k, v))
      None t.stalls
  with
  | Some (k, _) -> Some k
  | None -> None

let pp ppf t =
  Format.fprintf ppf
    "%s: %d domains (%d workers), %.3f ms wall, %d tasks / %d invocations"
    t.technique t.domains t.workers (t.wall_ns /. 1e6) t.tasks t.invocations;
  if t.conds > 0 then Format.fprintf ppf ", %d conds" t.conds;
  if t.checks > 0 then Format.fprintf ppf ", %d checks" t.checks;
  if t.misspecs > 0 then Format.fprintf ppf ", %d misspecs" t.misspecs;
  if t.barrier_episodes > 0 then
    Format.fprintf ppf ", %d barrier episodes" t.barrier_episodes;
  match dominant_stall t with
  | Some cause ->
      let total = List.fold_left (fun a (_, v) -> a +. v) 0. t.stalls in
      Format.fprintf ppf ", stalled %.3f ms (mostly %s)" (total /. 1e6) cause
  | None -> ()
