type msg = Idle | Job of (unit -> unit) | Quit

type slot = {
  cell : msg Atomic.t;
  done_ : int Atomic.t;  (* jobs completed; read by the dispatcher to join *)
  err : exn option Atomic.t;
  wake : Wake.t;
      (* signalled on every [cell] hand-off (job, quit) and completion: the
         idle worker and the joining dispatcher are never parked at once *)
}

type t = { slots : slot array; doms : unit Domain.t array; mutable live : bool }

let worker_loop (s : slot) =
  let ready () = match Atomic.get s.cell with Idle -> false | Job _ | Quit -> true in
  let running = ref true in
  while !running do
    ignore (Wake.await [ s.wake ] ready : bool);
    match Atomic.get s.cell with
    | Idle -> ()
    | Quit -> running := false
    | Job f ->
        (try f () with e -> Atomic.set s.err (Some e));
        Atomic.set s.cell Idle;
        Atomic.incr s.done_;
        Wake.signal s.wake
  done

let create ~workers =
  if workers < 0 then invalid_arg "Pool.create: negative worker count";
  let slots =
    Array.init workers (fun _ ->
        { cell = Atomic.make Idle; done_ = Atomic.make 0; err = Atomic.make None;
          wake = Wake.create () })
  in
  let doms = Array.map (fun s -> Domain.spawn (fun () -> worker_loop s)) slots in
  { slots; doms; live = true }

let workers t = Array.length t.doms
let live t = t.live

let run ?wd t fns =
  if not t.live then invalid_arg "Pool.run: pool was shut down";
  let n = Array.length fns in
  if n = 0 then ()
  else begin
    if n - 1 > Array.length t.doms then invalid_arg "Pool.run: too many functions";
    (* With a watchdog, the first function to fail cancels it, which wakes
       every peer parked on the cohort's waits. *)
    let fns =
      match wd with
      | None -> fns
      | Some wd ->
          Array.map
            (fun f () ->
              try f ()
              with e ->
                ignore (Watchdog.cancel wd e : bool);
                raise e)
            fns
    in
    let before = Array.init (n - 1) (fun i -> Atomic.get t.slots.(i).done_) in
    for i = 1 to n - 1 do
      let s = t.slots.(i - 1) in
      Atomic.set s.err None;
      Atomic.set s.cell (Job fns.(i));
      Wake.signal s.wake
    done;
    let main_err = ref None in
    (try fns.(0) () with e -> main_err := Some e);
    let join i =
      let s = t.slots.(i - 1) in
      (* The join must outlive cancellation — cancelled workers are still
         unwinding — so it is non-cancellable. *)
      let await wd =
        Watchdog.wait ~cancellable:false ?wd ~role:"pool"
          ~for_:(Printf.sprintf "join of worker %d" i) ~on:[ s.wake ] (fun () ->
            Atomic.get s.done_ > before.(i - 1))
      in
      try await wd
      with Watchdog.Stalled _ as stall -> (
        (* Cancel the cohort so the worker unwinds, and give it one more
           timeout window before declaring it wedged.  The window comes from
           a fresh grace watchdog: the original absolute deadline may
           already be in the past — often exactly why this join stalled —
           and a zero-width second chance would condemn a shared pool whose
           workers unwind fine once cancelled. *)
        Option.iter (fun wd -> ignore (Watchdog.cancel wd stall : bool)) wd;
        try await (Option.map Watchdog.grace wd)
        with Watchdog.Stalled _ ->
          (* The domain is unrecoverable; abandoning its join would corrupt
             the next run, so the pool dies with it.  The domain itself is
             leaked until process exit. *)
          t.live <- false)
    in
    for i = 1 to n - 1 do
      join i
    done;
    (match Option.bind wd Watchdog.root_cause with
    | Some e -> raise e
    | None -> ());
    (match !main_err with Some e -> raise e | None -> ());
    Array.iteri
      (fun i s -> if i < n - 1 then
          match Atomic.get s.err with Some e -> raise e | None -> ())
      t.slots
  end

let shutdown t =
  if t.live then begin
    t.live <- false;
    Array.iter
      (fun s ->
        Atomic.set s.cell Quit;
        Wake.signal s.wake)
      t.slots;
    Array.iter Domain.join t.doms
  end

let with_pool ~workers f =
  let t = create ~workers in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
