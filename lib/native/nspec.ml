module Ir = Xinv_ir
module Rt = Xinv_runtime
module Sx = Xinv_speccross
module Intra = Xinv_parallel.Intra
module Obs = Xinv_obs

type config = {
  workers : int;
  sig_kind : Rt.Signature.kind;
  checkpoint_every : int;
  spec_distance : int;
  mode_of : string -> Sx.Runtime.mode;
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
    mode_of = (fun _ -> Sx.Runtime.M_doall);
    inject_misspec = None;
    work = Work.Off;
    grain = 1;
  }

(* Requests per worker-to-checker queue. *)
let queue_capacity = 1024

(* Signature request, one per speculative task.  [r_started] is the dpos
   snapshot taken at task entry.  The worker has already stored [r_sig] in
   the signature log, where later tasks' windows find it. *)
type req = {
  r_gen : int;
  r_worker : int;
  r_epoch : int;
  r_sig : Rt.Signature.t;
  r_started : int array;
  r_force : bool;
}

exception Abort_now

(* Exceptions raised while executing a *speculative* task on possibly
   inconsistent state are contained: the task is submitted as a forced
   conflict and recovery re-executes it non-speculatively (where a
   deterministic bug would then surface for real).  Runtime faults and
   cancellation are *not* misspeculation — they must escape and unwind
   the whole cohort. *)
let containable = function
  | Out_of_memory | Stack_overflow -> false
  | Fault.Injected _ | Watchdog.Stalled _ | Watchdog.Cancelled _ -> false
  | _ -> true

let run ~pool ?wd ?fault ?fr ?config (p : Ir.Program.t) env =
  let cfg = match config with Some c -> c | None -> default_config ~workers:3 in
  let workers = cfg.workers in
  assert (workers > 0);
  (* Flight ring mapping: worker w -> ring w, checker -> ring [workers]. *)
  let ev k ~domain ~a ~b =
    match fr with Some f -> Obs.Flight.record f ~domain k ~a ~b | None -> ()
  in
  if cfg.grain <= 0 then invalid_arg "Nspec.run: grain must be positive";
  (* A block is checked as one unit at its last task's position, so its
     whole extent counts against the speculative range: clamp the grain so
     chunking can never widen the misspeculation window past the
     spec-distance throttle. *)
  let grain = Stdlib.max 1 (Stdlib.min cfg.grain (Stdlib.max 1 (cfg.spec_distance / 2))) in
  if workers > Pool.workers pool then invalid_arg "Nspec.run: pool too small";
  let wd = match wd with Some w -> w | None -> Watchdog.unbounded () in
  let mem = env.Ir.Env.mem in
  let ep = Sx.Runtime.Epochs.make p env in
  let nepochs = ep.Sx.Runtime.Epochs.count and epoch_base = ep.Sx.Runtime.Epochs.base in
  let env_of_epoch = Sx.Runtime.Epochs.env_of ep and hot = ep.Sx.Runtime.Epochs.hot in
  (* The technique a non-speculative epoch runs under in {!Nbarrier}. *)
  let technique_of (il : Ir.Program.inner) =
    match cfg.mode_of il.Ir.Program.ilabel with
    | Sx.Runtime.M_doall -> Intra.Doall
    | Sx.Runtime.M_localwrite -> Intra.Localwrite
    | Sx.Runtime.M_domore _ ->
        invalid_arg "Nspec.run: M_domore epochs are not supported natively"
  in
  Array.iter (fun il -> ignore (technique_of il)) ep.Sx.Runtime.Epochs.inners;
  let sh = Nbarrier.share ~work:cfg.work ~grain:1 ~threads:workers env in
  let ckpts = Rt.Checkpoint.create () in
  Rt.Checkpoint.save ckpts ~epoch:0 mem;
  ev Obs.Flight.Checkpoint ~domain:0 ~a:0 ~b:0;
  let siglog = Rt.Siglog.create ~workers in

  (* ---- shared state ---- *)
  let dummy_req =
    { r_gen = -1; r_worker = 0; r_epoch = 0;
      r_sig = Rt.Signature.create cfg.sig_kind; r_started = [||]; r_force = false }
  in
  let qs =
    Array.init workers (fun _ ->
        Spsc.create ~dummy:dummy_req ~capacity:queue_capacity)
  in
  (* The frontier arrays are the contended heart of the protocol: every
     worker writes its own slot while every peer polls all of them, so each
     slot lives on its own cache line ({!Pad}), as do the scalar flags the
     throttle and rally predicates poll. *)
  let tpos = Pad.atomic_array workers (-1) in
  let dpos = Pad.atomic_array workers (-1) in
  let progress = Pad.atomic_array workers (-1) in
  let abort = Pad.atomic false in
  let checker_gen = Pad.atomic 0 in
  let submitted = Pad.atomic 0 in
  let processed = Pad.atomic 0 in
  let submitted_total = Pad.atomic 0 in
  let misspec_ctr = Pad.atomic 0 in
  let max_epoch = Pad.atomic 0 in
  let ckpt_done = Pad.atomic (-1) in
  let io_done = Pad.atomic (-1) in
  let redo_from = Pad.atomic 0 in
  let redo_to = Pad.atomic 0 in
  let resume_from = Pad.atomic 0 in
  let finished = Pad.atomic false in
  let injected = Pad.atomic false in
  (* Every wait of the protocol reads the frontier flags above, so every
     store to one of them goes through [publish], which signals [changed]
     (one atomic load while nobody is parked). *)
  let changed = Wake.create () in
  let publish a v =
    Atomic.set a v;
    Wake.signal changed
  in
  let publish_incr a =
    Atomic.incr a;
    Wake.signal changed
  in
  let bar = Nbar.create ~parties:workers in
  let stat = Stallcat.create () in
  let tasks_total = ref 0 in
  (* worker 0 runs on the calling domain *)
  let aborted () = Atomic.get abort in
  let role_of w = Printf.sprintf "worker %d" w in
  let wait_or_abort ?(cause = Stallcat.Rally) ~w ~for_ pred =
    if not (pred () || aborted ()) then
      Stallcat.timed ?fr ~domain:w stat cause (fun () ->
          Watchdog.wait ~wd ~role:(role_of w) ~for_ ~on:[ changed ] (fun () ->
              pred () || aborted ()))
  in
  let episodes = Array.make workers 0 in
  let bar_wait ~w =
    ev Obs.Flight.Barrier_arrive ~domain:w ~a:episodes.(w) ~b:0;
    Stallcat.timed ?fr ~domain:w stat Stallcat.Barrier_wait (fun () ->
        Nbar.wait ~wd ~role:(role_of w) bar);
    ev Obs.Flight.Barrier_release ~domain:w ~a:episodes.(w) ~b:0;
    episodes.(w) <- episodes.(w) + 1
  in
  (* A queue-stalled worker keeps executing but stops submitting
     signatures, starving the checker — the failure the watchdog's
     bounded waits must surface. *)
  let q_stalled = Array.make workers false in
  let all_progress_ge e =
    let ok = ref true in
    for w' = 0 to workers - 1 do
      if Atomic.get progress.(w') < e then ok := false
    done;
    !ok
  in
  let drained () = Atomic.get processed >= Atomic.get submitted in

  (* ---- checker domain ---- *)
  let checker () =
    let cur_gen = ref 0 in
    (* The oldest unprocessed request of each worker.  A worker's later
       requests are no readier than its oldest, so one slot each suffices. *)
    let held = Array.make workers None in
    let rec refill w =
      if Option.is_none held.(w) then
        match Spsc.try_pop qs.(w) with
        | Some r when r.r_gen <> !cur_gen -> refill w
        | r -> held.(w) <- r
    in
    (* Every other worker's frontier passed the request's epoch base, so
       every signature its window needs is already in the log. *)
    let ready (r : req) =
      let need = epoch_base.(r.r_epoch) - 1 in
      let ok = ref true in
      for w' = 0 to workers - 1 do
        if w' <> r.r_worker && Atomic.get dpos.(w') < need then ok := false
      done;
      !ok
    in
    let process (r : req) =
      Fault.inject fault Fault.Checker_die ~domain:workers
        ~site:(Atomic.get processed);
      let conflict = ref r.r_force and win = ref 0 in
      for w' = 0 to workers - 1 do
        if w' <> r.r_worker then begin
          let n, hit =
            Rt.Siglog.compare_window siglog ~worker:w' ~after:r.r_started.(w')
              ~epoch:r.r_epoch ~upto:r.r_epoch r.r_sig
          in
          win := !win + n;
          if hit then conflict := true
        end
      done;
      ev Obs.Flight.Sig_check ~domain:workers ~a:r.r_epoch ~b:!win;
      if !conflict then begin
        Array.fill held 0 workers None;
        incr cur_gen;
        Atomic.incr misspec_ctr;
        ev Obs.Flight.Misspec ~domain:workers ~a:r.r_epoch ~b:r.r_worker;
        (* abort before processed, so a worker that observes the full drain
           also observes the abort; the generation last, so recovery's reset
           of processed cannot precede this increment *)
        publish abort true;
        publish_incr processed;
        publish checker_gen !cur_gen
      end
      else publish_incr processed
    in
    (* Idle until a request reaches an empty slot, a held one becomes ready
       (a frontier moved), the run finishes or the cohort is cancelled. *)
    let idle_on =
      changed :: Watchdog.on_cancel wd :: Array.to_list (Array.map Spsc.on_push qs)
    in
    let has_work () =
      Atomic.get finished || Watchdog.cancelled wd
      || Array.exists2
           (fun h q ->
             match h with Some r -> ready r | None -> Spsc.length q > 0)
           held qs
    in
    let running = ref true in
    while !running do
      let progressed = ref false in
      for w = 0 to workers - 1 do
        refill w;
        match held.(w) with
        | Some r when ready r ->
            held.(w) <- None;
            process r;
            progressed := true
        | _ -> ()
      done;
      if Atomic.get finished || Watchdog.cancelled wd then running := false
      else if not !progressed then ignore (Wake.await idle_on has_work : bool)
    done
  in

  (* ---- per-epoch execution ---- *)
  let submit ~w req =
    (* Fast path: the ring normally has room.  It fills only when this
       worker runs a whole ring ahead of a peer whose frontier its oldest
       request waits for; only then is the push blocking (and
       stall-accounted). *)
    if not (Spsc.try_push qs.(w) req) then
      Stallcat.timed ?fr ~domain:w stat Stallcat.Queue_full (fun () ->
          Spsc.push ~wd ~role:(role_of w) qs.(w) req);
    ev Obs.Flight.Queue_sample ~domain:w ~a:w ~b:(Spsc.length qs.(w))
  in
  let throttle ~w g =
    (* Publish first, then wait for every trailing worker to come within the
       speculative range (dissertation 4.2.1).  A stalled worker keeps
       executing but stops publishing: its frozen frontier starves the
       peers' range throttle, which the watchdog then bounds. *)
    if not q_stalled.(w) then publish tpos.(w) g;
    if aborted () then raise Abort_now;
    let floor_ = g - cfg.spec_distance + 1 in
    if floor_ > 0 then
      for w' = 0 to workers - 1 do
        if w' <> w && Atomic.get tpos.(w') < floor_ then begin
          wait_or_abort ~cause:Stallcat.Throttle ~w
            ~for_:(Printf.sprintf "spec-range throttle behind worker %d" w')
            (fun () -> Atomic.get tpos.(w') >= floor_);
          if aborted () then raise Abort_now
        end
      done
  in
  (* [task] executes the block and returns the instrumented addresses it
     touched (footprints evaluated iteration by iteration, each just before
     its body runs, exactly as the unchunked protocol did). *)
  let run_task ~w ~gen ~epoch ~g task =
    ev Obs.Flight.Dispatch ~domain:w ~a:g ~b:epoch;
    if q_stalled.(w) then
      (* Stalled signature stream: execute the task but never submit it,
         and freeze the frontier — downstream waits must time out. *)
      (try ignore (task ()) with e when containable e -> ())
    else begin
      (* Everything of mine below [g] is already in the log. *)
      publish dpos.(w) (g - 1);
      let started = Array.map Atomic.get dpos in
      let sg = Rt.Signature.create cfg.sig_kind in
      let force = ref false in
      (try Rt.Signature.add_list sg (task ())
       with e when containable e -> force := true);
      (match cfg.inject_misspec with
      | Some (ie, iw) when ie = epoch && iw = w && not (Atomic.get injected) ->
          Atomic.set injected true;
          force := true
      | _ -> ());
      Rt.Siglog.store siglog ~worker:w ~pos:g ~epoch sg;
      publish_incr submitted;
      Atomic.incr submitted_total;
      submit ~w
        { r_gen = gen; r_worker = w; r_epoch = epoch; r_sig = sg;
          r_started = started; r_force = !force };
      publish dpos.(w) g
    end
  in
  (* Submit a no-signature forced conflict, used when speculative state is
     so inconsistent that even scheduling-side evaluation raises, and wait
     for the abort it causes: re-running the epoch would store positions
     the log already holds. *)
  let force_conflict ~w ~gen ~epoch ~g =
    publish dpos.(w) (g - 1);
    let started = Array.map Atomic.get dpos in
    publish_incr submitted;
    Atomic.incr submitted_total;
    submit ~w
      { r_gen = gen; r_worker = w; r_epoch = epoch;
        r_sig = Rt.Signature.create cfg.sig_kind; r_started = started;
        r_force = true };
    publish dpos.(w) g;
    wait_or_abort ~cause:Stallcat.Checker_lag ~w ~for_:"forced conflict" (fun () -> false);
    raise Abort_now
  in
  let exec_epoch_spec ~w ~gen e =
    let il, env_t = env_of_epoch e in
    (* Replicated on every worker (privatizable per-invocation slots). *)
    (try Nbarrier.exec_pre cfg.work env_t il
     with ex when containable ex -> force_conflict ~w ~gen ~epoch:e ~g:epoch_base.(e));
    let trip = il.Ir.Program.trip env_t in
    if w = 0 then tasks_total := !tasks_total + trip;
    match cfg.mode_of il.Ir.Program.ilabel with
    | Sx.Runtime.M_domore _ -> assert false
    | Sx.Runtime.M_doall ->
        (* Block-cyclic blocks of [grain] tasks: one throttle, one signature
           and one checking request per block, positioned (like any task) at
           the block's last global position.  Grain 1 is the original
           task-per-iteration protocol. *)
        let nblocks = (trip + grain - 1) / grain in
        let b = ref w in
        while !b < nblocks do
          if aborted () then raise Abort_now;
          let j0 = !b * grain in
          let j1 = Stdlib.min trip (j0 + grain) - 1 in
          let g = epoch_base.(e) + j1 in
          throttle ~w g;
          run_task ~w ~gen ~epoch:e ~g (fun () ->
              let acc = ref [] in
              for j = j0 to j1 do
                let env_j = Ir.Env.with_inner env_t j in
                let addrs = Ir.Footprint.body_filtered ~hot env_j il in
                Nbarrier.exec_iteration sh Intra.Doall ~tid:w env_j il;
                acc := List.rev_append addrs !acc
              done;
              !acc);
          b := !b + workers
        done
    | Sx.Runtime.M_localwrite ->
        for j = 0 to trip - 1 do
          if aborted () then raise Abort_now;
          let env_j = Ir.Env.with_inner env_t j in
          let g = epoch_base.(e) + j in
          throttle ~w g;
          let mine =
            match
              List.exists (Intra.owns ~threads:workers ~tid:w env_j) il.Ir.Program.body
            with
            | m -> Some m
            | exception ex when containable ex -> None
          in
          (match mine with
          | None ->
              (* Ownership itself read garbage: force a conflict. *)
              force_conflict ~w ~gen ~epoch:e ~g
          | Some false -> publish dpos.(w) g
          | Some true ->
              run_task ~w ~gen ~epoch:e ~g (fun () ->
                  let addrs = Ir.Footprint.body_filtered ~hot env_j il in
                  Nbarrier.exec_iteration sh Intra.Localwrite ~tid:w env_j il;
                  addrs))
        done
  in
  let exec_epoch_nonspec w e =
    let il, env_t = env_of_epoch e in
    if w = 0 then Nbarrier.exec_pre cfg.work env_t il;
    bar_wait ~w;
    Nbarrier.run_share sh ~tid:w (technique_of il) env_t il
  in

  (* ---- recovery ---- *)
  let recover w gen =
    let role = role_of w in
    let t_rec = Unix.gettimeofday () in
    bar_wait ~w;
    (* All workers rallied: nothing new is being pushed or executed. *)
    if w = 0 then begin
      Stallcat.timed ?fr ~domain:w stat Stallcat.Checker_lag (fun () ->
          Watchdog.wait ~wd ~role ~for_:"checker generation bump" ~on:[ changed ]
            (fun () -> Atomic.get checker_gen > !gen));
      Rt.Siglog.clear siglog;
      let ck = Rt.Checkpoint.restore ckpts ~into:mem in
      Atomic.set redo_from ck;
      Atomic.set redo_to (Stdlib.min (Atomic.get max_epoch) (nepochs - 1));
      let rf = Atomic.get redo_to + 1 in
      Atomic.set resume_from rf;
      publish submitted 0;
      publish processed 0;
      let base = epoch_base.(rf) - 1 in
      for w' = 0 to workers - 1 do
        publish tpos.(w') base;
        publish dpos.(w') base;
        publish progress.(w') (rf - 1)
      done;
      (* Everyone already exited their abort-escaping waits (they are at the
         barrier), so the flag can drop before they resume. *)
      publish abort false
    end;
    bar_wait ~w;
    gen := Atomic.get checker_gen;
    (* Re-execute the misspeculated epochs with real non-speculative
       barriers, then checkpoint the resume point. *)
    for e' = Atomic.get redo_from to Atomic.get redo_to do
      exec_epoch_nonspec w e';
      bar_wait ~w
    done;
    if w = 0 then begin
      let rf = Atomic.get resume_from in
      Rt.Checkpoint.save ckpts ~epoch:rf mem;
      ev Obs.Flight.Checkpoint ~domain:w ~a:rf ~b:0;
      publish ckpt_done rf
    end;
    bar_wait ~w;
    if w = 0 then
      ev Obs.Flight.Recovery ~domain:w
        ~a:(Atomic.get redo_to - Atomic.get redo_from + 1)
        ~b:(int_of_float (1e9 *. (Unix.gettimeofday () -. t_rec)));
    Atomic.get resume_from
  in

  (* ---- worker ---- *)
  let worker w () =
    let role = role_of w in
    let e = ref 0 in
    let gen = ref 0 in
    let running = ref true in
    while !running do
      if aborted () then e := recover w gen
      else if !e >= nepochs then begin
        if not q_stalled.(w) then begin
          publish progress.(w) nepochs;
          publish tpos.(w) epoch_base.(nepochs);
          publish dpos.(w) epoch_base.(nepochs)
        end;
        wait_or_abort ~w ~for_:"peers to finish" (fun () ->
            all_progress_ge nepochs);
        wait_or_abort ~cause:Stallcat.Checker_lag ~w ~for_:"checker drain" drained;
        if aborted () then e := recover w gen
        else begin
          if w = 0 then publish finished true;
          running := false
        end
      end
      else begin
        if not q_stalled.(w) then publish progress.(w) !e;
        (* Fault sites are epoch ordinals. *)
        Fault.inject fault Fault.Worker_raise ~domain:w ~site:!e;
        if w = 0 then
          Fault.inject fault Fault.Scheduler_die ~domain:0 ~site:!e;
        if Fault.fires fault Fault.Queue_stall ~domain:w ~site:!e then
          q_stalled.(w) <- true;
        if Fault.fires fault Fault.Poison_cond ~domain:w ~site:!e then
          Watchdog.park wd ~role;
        if Atomic.get max_epoch < !e then begin
          (* monotonic max; racy in-between values are still monotone *)
          let rec bump () =
            let cur = Atomic.get max_epoch in
            if cur < !e && not (Atomic.compare_and_set max_epoch cur !e) then bump ()
          in
          bump ()
        end;
        if
          cfg.checkpoint_every > 0
          && !e > 0
          && !e mod cfg.checkpoint_every = 0
          && Atomic.get ckpt_done < !e
        then begin
          if w = 0 then begin
            wait_or_abort ~w ~for_:"checkpoint rally" (fun () ->
                all_progress_ge !e);
            wait_or_abort ~cause:Stallcat.Checker_lag ~w ~for_:"checker drain" drained;
            if not (aborted ()) then begin
              Rt.Checkpoint.save ckpts ~epoch:!e mem;
              ev Obs.Flight.Checkpoint ~domain:w ~a:!e ~b:0;
              Rt.Siglog.prune siglog ~upto:!e;
              publish ckpt_done !e
            end
          end
          else
            wait_or_abort ~w ~for_:"checkpoint" (fun () ->
                Atomic.get ckpt_done >= !e)
        end;
        if aborted () then e := recover w gen
        else if Sx.Runtime.Epochs.irreversible ep !e then begin
          (* Rally, drain, one worker executes the epoch exactly once,
             checkpoint, resume (§4.2.2). *)
          if w = 0 then begin
            wait_or_abort ~w ~for_:"irreversible-epoch rally" (fun () ->
                all_progress_ge !e);
            wait_or_abort ~cause:Stallcat.Checker_lag ~w ~for_:"checker drain" drained;
            if not (aborted ()) then begin
              let il, env_t = env_of_epoch !e in
              tasks_total := !tasks_total + Nbarrier.run_invocation_seq cfg.work env_t il;
              Rt.Checkpoint.save ckpts ~epoch:(!e + 1) mem;
              ev Obs.Flight.Checkpoint ~domain:w ~a:(!e + 1) ~b:0;
              Rt.Siglog.prune siglog ~upto:(!e + 1);
              publish io_done !e
            end
          end
          else
            wait_or_abort ~w ~for_:"irreversible epoch" (fun () ->
                Atomic.get io_done >= !e);
          if aborted () then e := recover w gen
          else begin
            publish tpos.(w) (epoch_base.(!e + 1) - 1);
            publish dpos.(w) (epoch_base.(!e + 1) - 1);
            ev Obs.Flight.Epoch_commit ~domain:w ~a:!e ~b:0;
            incr e
          end
        end
        else begin
          publish tpos.(w) (epoch_base.(!e) - 1);
          publish dpos.(w) (epoch_base.(!e) - 1);
          (try
             exec_epoch_spec ~w ~gen:!gen !e;
             if not (aborted ()) then begin
               ev Obs.Flight.Epoch_commit ~domain:w ~a:!e ~b:0;
               incr e
             end
           with Abort_now -> ())
        end
      end
    done
  in
  let fns =
    Array.init (workers + 1) (fun i -> if i < workers then worker i else checker)
  in
  let wall_ns = Nrun.timed (fun () -> Pool.run ~wd pool fns) in
  Nrun.make ~technique:"native-SPECCROSS" ~domains:(workers + 1) ~workers ~wall_ns
    ~tasks:!tasks_total ~invocations:(Ir.Program.invocations p)
    ~checks:(Atomic.get submitted_total) ~misspecs:(Atomic.get misspec_ctr)
    ~barrier_episodes:(Nbar.waits bar) ~stalls:(Stallcat.to_list stat) ()
