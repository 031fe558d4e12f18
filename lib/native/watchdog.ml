exception
  Stalled of { role : string; waiting_for : string; waited_ns : float }

exception Cancelled of string

type t = {
  deadline_at : float;  (* absolute Unix time; infinity when unbounded *)
  wait_timeout_s : float;  (* per-wait budget; infinity when unbounded *)
  root : exn option Atomic.t;
  stall_count : int Atomic.t;
  on_cancel : Wake.t;
}

let make deadline_at wait_timeout_s =
  {
    deadline_at;
    wait_timeout_s;
    root = Atomic.make None;
    stall_count = Atomic.make 0;
    on_cancel = Wake.create ();
  }

let unbounded () = make infinity infinity

let create ?deadline_ms ?wait_timeout_ms () =
  let deadline_at =
    match deadline_ms with
    | None -> infinity
    | Some ms ->
        if ms <= 0. then invalid_arg "Watchdog.create: deadline must be positive";
        Unix.gettimeofday () +. (ms /. 1e3)
  in
  let wait_timeout_s =
    match wait_timeout_ms with
    | None -> infinity
    | Some ms ->
        if ms <= 0. then invalid_arg "Watchdog.create: timeout must be positive";
        ms /. 1e3
  in
  make deadline_at wait_timeout_s

let bounded t = t.deadline_at < infinity || t.wait_timeout_s < infinity

(* A fresh watchdog for the recovery join after cohort cancellation: the
   original absolute deadline may already have expired — that can be
   exactly why the join stalled — but the unwinding workers still deserve
   one full wait window before the pool is declared wedged.  Bounds are
   relative to now; cancellation state is not carried (the recovery join
   is non-cancellable anyway). *)
let grace t =
  let w = if t.wait_timeout_s < infinity then t.wait_timeout_s else 5. in
  make (Unix.gettimeofday () +. w) w
let cancelled t = Atomic.get t.root <> None
let root_cause t = Atomic.get t.root
let stalls t = Atomic.get t.stall_count
let on_cancel t = t.on_cancel

let rec cancel t e =
  match Atomic.get t.root with
  | Some _ -> false
  | None ->
      if Atomic.compare_and_set t.root None (Some e) then begin
        Wake.signal t.on_cancel;
        true
      end
      else cancel t e

let stall t ~role ~for_ ~started =
  Atomic.incr t.stall_count;
  let waited_ns = (Unix.gettimeofday () -. started) *. 1e9 in
  raise (Stalled { role; waiting_for = for_; waited_ns })

let wait ?(cancellable = true) ?wd ~role ~for_ ~on pred =
  if not (pred ()) then
    match wd with
    | None -> ignore (Wake.await on pred : bool)
    | Some t ->
        let started = if bounded t then Unix.gettimeofday () else 0. in
        let until = Float.min (started +. t.wait_timeout_s) t.deadline_at in
        let was_cancelled = ref false in
        let pred () =
          pred ()
          || cancellable && cancelled t && (was_cancelled := true; true)
        in
        let on = if cancellable then t.on_cancel :: on else on in
        if not (Wake.await ~until on pred) then stall t ~role ~for_ ~started
        else if !was_cancelled then raise (Cancelled role)

let park t ~role =
  wait ~wd:t ~role ~for_:"park" ~on:[] (fun () -> false);
  assert false
