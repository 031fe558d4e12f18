module Ir = Xinv_ir
module Rt = Xinv_runtime
module Intra = Xinv_parallel.Intra
module Obs = Xinv_obs
module P = Xinv_speccross.Protocol

type config = {
  workers : int;
  sig_kind : Rt.Signature.kind;
  checkpoint_every : int;
  spec_distance : int;
  mode_of : string -> P.mode;
  inject_misspec : (int * int) option;
  work : Work.t;
  grain : int;
}

let default_config ~workers =
  {
    workers;
    sig_kind = Rt.Signature.Range;
    checkpoint_every = 1000;
    spec_distance = max_int / 4;
    mode_of = (fun _ -> P.M_doall);
    inject_misspec = None;
    work = Work.Off;
    grain = 1;
  }

(* Requests per worker-to-checker queue. *)
let queue_capacity = 1024

(* A request on a worker's ring, stamped with the generation it was made
   in: the checker drops those of generations it already aborted. *)
type stamped = { gen : int; req : P.request }

(* One native run: [Spsc] rings to the checker, fed through [Spsc.Batch]
   write-combining buffers, padded [Atomic] frontiers and flags woken
   through one [Wake] point, and every wait bounded by [wd].  A worker's
   buffered requests reach the checker before it waits ({!block},
   {!barrier}), publishes a new epoch ([Progress]) or leaves the region:
   every wait of the protocol may depend on the checker having seen them,
   and no worker runs an unbounded stretch without one of the three. *)
type machine = {
  pool : Pool.t;
  wd : Watchdog.t;
  fault : Fault.t option;
  fr : Obs.Flight.t option;
  stat : Stallcat.t;
  workers : int;
  work : Work.t;
  sh : Nbarrier.share;
  qs : stamped Spsc.t array;
  bufs : stamped Spsc.Batch.b array;  (* per worker, over [qs]; its worker only *)
  (* The frontier arrays are the contended heart of the protocol: every
     worker writes its own slot while every peer polls all of them, so each
     slot lives on its own cache line ({!Pad}), as do the scalar flags the
     waits poll. *)
  progress : int Atomic.t array;
  tpos : int Atomic.t array;
  dpos : int Atomic.t array;
  done_ : int Atomic.t array;
  ckpt : int Atomic.t;
  io : int Atomic.t;
  abort : bool Atomic.t;
  submitted : int Atomic.t;
  processed : int Atomic.t;
  finished : bool Atomic.t;
  checker_gen : int Atomic.t;  (* conflicts found, published last *)
  changed : Wake.t;  (* signalled after every store to the above *)
  bar : Nbar.t;
  stalled : bool array;  (* per worker: its signature stream is frozen *)
  mutable gen : int;  (* recoveries; written by worker 0 between barriers *)
  (* The checker's own state. *)
  held : stamped option array;  (* the oldest unprocessed request per worker *)
  idle_on : Wake.t list;  (* what can give an idle checker work *)
  mutable c_gen : int;
  mutable next : int;  (* where the next scan for a ready request starts *)
  mutable wall_ns : float;
}

module Machine = struct
  type t = machine

  let role w = Printf.sprintf "worker %d" w

  let cell m (f : P.frontier) p =
    match f with
    | P.Progress -> m.progress.(p)
    | P.Tpos -> m.tpos.(p)
    | P.Dpos -> m.dpos.(p)
    | P.Done -> m.done_.(p)
    | P.Ckpt -> m.ckpt
    | P.Io -> m.io

  let name (f : P.frontier) =
    match f with
    | P.Progress -> "epoch"
    | P.Tpos -> "task position"
    | P.Dpos -> "signature position"
    | P.Done -> "iteration"
    | P.Ckpt -> "checkpoint"
    | P.Io -> "irreversible epoch"

  let set m a v =
    Atomic.set a v;
    Wake.signal m.changed

  let flush m ~w =
    let b = m.bufs.(w) in
    if not (Spsc.Batch.try_flush b) then
      Stallcat.timed ?fr:m.fr ~domain:w m.stat Stallcat.Queue_full (fun () ->
          Spsc.Batch.flush ~wd:m.wd ~role:(role w) b)

  (* A stalled worker keeps executing but stops publishing: its frozen
     frontiers starve its peers' waits, which the watchdog then bounds. *)
  let publish m ~w f v =
    if f = P.Progress then flush m ~w;
    if not m.stalled.(w) then set m (cell m f w) v
  let get m ~w:_ f p = Atomic.get (cell m f p)
  let aborted m ~w:_ = Atomic.get m.abort

  let block m ~w cause ~for_ pred =
    if not (pred ()) then begin
      flush m ~w;
      Stallcat.timed ?fr:m.fr ~domain:w m.stat cause (fun () ->
          Watchdog.wait ~wd:m.wd ~role:(role w) ~for_ ~on:[ m.changed ] pred)
    end

  (* Every wait of the protocol returns on an abort too. *)
  let wait m ~w cause ~for_ pred =
    block m ~w cause ~for_ (fun () -> pred () || Atomic.get m.abort)

  let await m ~w why f p v =
    let a = cell m f p in
    if Atomic.get a < v then
      let for_ =
        match f with
        | P.Ckpt | P.Io -> Printf.sprintf "%s %d" (name f) v
        | _ -> Printf.sprintf "%s %d of worker %d" (name f) v p
      in
      wait m ~w (P.cause why) ~for_ (fun () -> Atomic.get a >= v)

  let await_drained m ~w why =
    wait m ~w (P.cause why) ~for_:"checker drain" (fun () ->
        Atomic.get m.processed >= Atomic.get m.submitted)

  let await_abort m ~w =
    wait m ~w Stallcat.Checker_lag ~for_:"forced conflict" (fun () -> false)

  let charge _ _ = ()

  let exec m ~w (k : P.kind) env (il : Ir.Program.inner) =
    match k with
    | P.Pre -> Nbarrier.exec_pre m.work env il
    | P.Seq -> ignore (Nbarrier.run_invocation_seq m.work env il : int)
    | P.Doall -> Nbarrier.exec_iteration m.sh Intra.Doall ~tid:w env il
    | P.Localwrite -> Nbarrier.exec_iteration m.sh Intra.Localwrite ~tid:w env il
    | P.Skip -> ()

  let record m ~domain kind ~a ~b =
    match m.fr with Some f -> Obs.Flight.record f ~domain kind ~a ~b | None -> ()

  (* Recovery's rally and resume, not a protocol operation. *)
  let barrier m ~w =
    flush m ~w;
    Stallcat.timed ?fr:m.fr ~domain:w m.stat Stallcat.Barrier_wait (fun () ->
        Nbar.wait ~wd:m.wd ~role:(role w) m.bar)

  let submit m (r : P.request) =
    let w = r.P.worker in
    if not m.stalled.(w) then begin
      Atomic.incr m.submitted;
      Wake.signal m.changed;
      let b = m.bufs.(w) and s = { gen = m.gen; req = r } in
      (* Fast path: the buffer, or the ring it flushes into, normally has
         room.  The ring fills only when this worker runs a whole ring
         ahead of a peer its oldest request waits for; only then is the
         push blocking (and stall-accounted). *)
      if not (Spsc.Batch.add b s) then
        Stallcat.timed ?fr:m.fr ~domain:w m.stat Stallcat.Queue_full (fun () ->
            Spsc.Batch.push ~wd:m.wd ~role:(role w) b s);
      match m.fr with
      | Some f ->
          Obs.Flight.record f ~domain:w Obs.Flight.Queue_sample ~a:w
            ~b:(Spsc.length m.qs.(w) + Spsc.Batch.pending b)
      | None -> ()
    end

  let finish m ~w =
    flush m ~w;
    if w = 0 then set m m.finished true

  let ready m { req = r; _ } =
    let ok = ref true in
    for p = 0 to m.workers - 1 do
      if p <> r.P.worker && Atomic.get m.progress.(p) < r.P.epoch then ok := false
    done;
    !ok

  let rec refill m w =
    if Option.is_none m.held.(w) then
      match Spsc.try_pop m.qs.(w) with
      | Some s when s.gen <> m.c_gen -> refill m w
      | s -> m.held.(w) <- s

  (* A worker's later requests are no readier than its oldest, so the
     checker holds one per worker and takes any that is ready, starting
     after the worker it served last. *)
  let scan m =
    let rec go k =
      if k = m.workers then None
      else
        let w = (m.next + k) mod m.workers in
        refill m w;
        match m.held.(w) with
        | Some s when ready m s ->
            m.held.(w) <- None;
            m.next <- (w + 1) mod m.workers;
            Some s.req
        | _ -> go (k + 1)
    in
    go 0

  let has_work m () =
    Atomic.get m.finished || Watchdog.cancelled m.wd
    || Array.exists2
         (fun h q -> match h with Some s -> ready m s | None -> Spsc.length q > 0)
         m.held m.qs

  let rec take m =
    if Atomic.get m.finished || Watchdog.cancelled m.wd then None
    else
      match scan m with
      | Some r -> Some r
      | None ->
          (* Idle until a request reaches an empty slot, a held one becomes
             ready (a frontier moved), the run finishes or the cohort is
             cancelled. *)
          ignore (Wake.await m.idle_on (has_work m) : bool);
          take m

  let verdict m _ conflict =
    if conflict then begin
      Array.fill m.held 0 m.workers None;
      m.c_gen <- m.c_gen + 1;
      (* abort before processed, so a worker that observes the full drain
         also observes the abort; the generation last, so recovery's reset
         of processed cannot precede this increment *)
      set m m.abort true;
      Atomic.incr m.processed;
      set m m.checker_gen m.c_gen
    end
    else begin
      Atomic.incr m.processed;
      Wake.signal m.changed
    end

  let rally m ~w =
    barrier m ~w;
    (* The abort is raised: wait for the checker's last store of the
       generation, so {!reset} cannot precede it. *)
    if w = 0 then
      block m ~w Stallcat.Checker_lag ~for_:"checker generation bump" (fun () ->
          Atomic.get m.checker_gen > m.gen)

  (* Every worker is at the barrier and the checker is done with the
     generation: nothing reads these until {!resume}'s barrier. *)
  let reset m =
    m.gen <- m.gen + 1;
    List.iter
      (Array.iter (fun c -> Atomic.set c (-1)))
      [ m.progress; m.tpos; m.dpos; m.done_ ];
    Atomic.set m.ckpt (-1);
    Atomic.set m.io (-1);
    Atomic.set m.submitted 0;
    Atomic.set m.processed 0;
    set m m.abort false

  let resume m ~w = barrier m ~w
  let abandon = aborted

  (* Exceptions raised while executing a *speculative* task on possibly
     inconsistent state are contained: the task is submitted as a forced
     conflict and recovery re-executes it non-speculatively (where a
     deterministic bug would then surface for real).  Runtime faults and
     cancellation are *not* misspeculation — they must escape and unwind
     the whole cohort. *)
  let containable _ = function
    | Out_of_memory | Stack_overflow -> false
    | Fault.Injected _ | Watchdog.Stalled _ | Watchdog.Cancelled _ -> false
    | _ -> true

  (* Fault sites are epoch ordinals, and the checker's request count. *)
  let fault m ~domain ~site =
    if domain = m.workers then Fault.inject m.fault Fault.Checker_die ~domain ~site
    else begin
      Fault.inject m.fault Fault.Worker_raise ~domain ~site;
      if domain = 0 then Fault.inject m.fault Fault.Scheduler_die ~domain ~site;
      if Fault.fires m.fault Fault.Queue_stall ~domain ~site then m.stalled.(domain) <- true;
      if Fault.fires m.fault Fault.Poison_cond ~domain ~site then
        Watchdog.park m.wd ~role:(role domain)
    end

  let clock _ = Unix.gettimeofday () *. 1e9

  let run m fns = m.wall_ns <- Nrun.timed (fun () -> Pool.run ~wd:m.wd m.pool fns)
end

module Engine = P.Make (Machine)

let run ~pool ?wd ?fault ?fr ?config (p : Ir.Program.t) env =
  let cfg = match config with Some c -> c | None -> default_config ~workers:3 in
  let workers = cfg.workers in
  if workers > Pool.workers pool then invalid_arg "Nspec.run: pool too small";
  let dummy =
    { gen = -1;
      req =
        { P.worker = 0; epoch = 0; sg = Rt.Signature.create cfg.sig_kind; started = [||];
          force = false } }
  in
  let wd = match wd with Some w -> w | None -> Watchdog.unbounded () in
  let qs = Array.init workers (fun _ -> Spsc.create ~dummy ~capacity:queue_capacity) in
  let changed = Wake.create () in
  let m =
    {
      pool;
      wd;
      fault;
      fr;
      stat = Stallcat.create ();
      workers;
      work = cfg.work;
      sh = Nbarrier.share ~work:cfg.work ~grain:1 ~threads:workers p env;
      qs;
      bufs = Array.map Spsc.Batch.create qs;
      progress = Pad.atomic_array workers (-1);
      tpos = Pad.atomic_array workers (-1);
      dpos = Pad.atomic_array workers (-1);
      done_ = Pad.atomic_array workers (-1);
      ckpt = Pad.atomic (-1);
      io = Pad.atomic (-1);
      abort = Pad.atomic false;
      submitted = Pad.atomic 0;
      processed = Pad.atomic 0;
      finished = Pad.atomic false;
      checker_gen = Pad.atomic 0;
      changed;
      bar = Nbar.create ~parties:(Stdlib.max 1 workers);
      stalled = Array.make workers false;
      gen = 0;
      held = Array.make workers None;
      idle_on = changed :: Watchdog.on_cancel wd :: Array.to_list (Array.map Spsc.on_push qs);
      c_gen = 0;
      next = 0;
      wall_ns = 0.;
    }
  in
  let c =
    Engine.run m
      { P.workers; sig_kind = cfg.sig_kind; checkpoint_every = cfg.checkpoint_every;
        spec_distance = cfg.spec_distance; mode_of = cfg.mode_of;
        inject_misspec = cfg.inject_misspec; non_spec_barriers = false; tm_style = false;
        grain = cfg.grain }
      p env
  in
  Nrun.make ~technique:"native-SPECCROSS" ~domains:(workers + 1) ~workers ~wall_ns:m.wall_ns
    ~tasks:c.P.tasks ~invocations:(Ir.Program.invocations p) ~checks:c.P.checks
    ~misspecs:c.P.misspecs ~barrier_episodes:c.P.barriers ~checkpoints:c.P.checkpoints
    ~epochs_redone:c.P.epochs_redone ~recovery_time:c.P.recovery_time
    ~signatures_compared:c.P.signatures_compared ~stalls:(Stallcat.to_list m.stat) ()
