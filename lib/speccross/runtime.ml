module Sim = Xinv_sim
module Ir = Xinv_ir
module Rt = Xinv_runtime

type mode = M_doall | M_localwrite | M_domore of Xinv_domore.Policy.t

type config = {
  machine : Sim.Machine.t;
  workers : int;
  sig_kind : Rt.Signature.kind;
  checkpoint_every : int;
  spec_distance : int;  (* max task lead over the slowest thread *)
  mode_of : string -> mode;
  inject_misspec : (int * int) option;
  non_spec_barriers : bool;
  tm_style : bool;
}

let default_config ~workers =
  {
    machine = Sim.Machine.default;
    workers;
    sig_kind = Rt.Signature.Range;
    checkpoint_every = 1000;
    spec_distance = max_int / 4;
    mode_of = (fun _ -> M_doall);
    inject_misspec = None;
    non_spec_barriers = false;
    tm_style = false;
  }

module Epochs = struct
  type t = {
    env : Ir.Env.t;
    inners : Ir.Program.inner array;
    count : int;
    base : int array;
    hot : string -> bool;
    side_effecting : bool array;
  }

  let env_of t e =
    let n = Array.length t.inners in
    (t.inners.(e mod n), Ir.Env.with_outer t.env (e / n))

  let irreversible t e = t.side_effecting.(e mod Array.length t.inners)

  let make (p : Ir.Program.t) env =
    let inners = Array.of_list p.Ir.Program.inners in
    let count = p.Ir.Program.outer_trip * Array.length inners in
    (* SPECCROSS only instruments accesses that may alias across
       invocations: anything touching an array some inner-loop body
       writes. *)
    let hot_arrays =
      List.concat_map
        (fun (st : Ir.Stmt.t) ->
          List.map (fun (a : Ir.Access.t) -> a.Ir.Access.base) st.Ir.Stmt.writes)
        (Ir.Program.body_stmts p)
      |> List.sort_uniq String.compare
    in
    let side_effecting =
      Array.map
        (fun (il : Ir.Program.inner) ->
          List.exists
            (fun (st : Ir.Stmt.t) -> st.Ir.Stmt.side_effect)
            (il.Ir.Program.pre @ il.Ir.Program.body))
        inners
    in
    let t =
      { env; inners; count; base = Array.make (count + 1) 0;
        hot = (fun arr -> List.mem arr hot_arrays); side_effecting }
    in
    (* Trip counts only read input data the region never writes, so this
       pre-pass is safe. *)
    for e = 0 to count - 1 do
      let il, env_t = env_of t e in
      t.base.(e + 1) <- t.base.(e) + il.Ir.Program.trip env_t
    done;
    t
end

(* Sentinel larger than any epoch number, used to release waiters on abort. *)
let wake = max_int / 2

type gstate = {
  g_id : int;
  progress : Sim.Mono_cell.t array;  (** epoch boundary reached per worker *)
  tpos : Sim.Mono_cell.t array;  (** global task position per worker *)
  positions : int array;
      (** per worker, the global position up to which its tasks are done *)
  submitted : int ref;
  processed : Sim.Mono_cell.t;
  abort : bool ref;
  arrived_n : int ref;
  arrived : Sim.Mono_cell.t;
  recovery_done : Sim.Mono_cell.t;
  ckpt_done : Sim.Mono_cell.t;  (** highest checkpointed epoch boundary *)
  io_done : Sim.Mono_cell.t;  (** highest completed irreversible epoch *)
  mutable redo_barrier : Sim.Barrier.t;
}

let fresh_gstate ~id ~workers =
  {
    g_id = id;
    progress = Array.init workers (fun _ -> Sim.Mono_cell.create ~init:(-1) ());
    tpos = Array.init workers (fun _ -> Sim.Mono_cell.create ~init:(-1) ());
    positions = Array.make workers (-1);
    submitted = ref 0;
    processed = Sim.Mono_cell.create ~init:0 ();
    abort = ref false;
    arrived_n = ref 0;
    arrived = Sim.Mono_cell.create ~init:0 ();
    recovery_done = Sim.Mono_cell.create ~init:0 ();
    ckpt_done = Sim.Mono_cell.create ~init:(-1) ();
    io_done = Sim.Mono_cell.create ~init:(-1) ();
    redo_barrier = Sim.Barrier.create ~parties:workers;
  }

type cmsg =
  | Request of {
      gen : int;
      worker : int;
      epoch : int;
      sg : Rt.Signature.t;
      started : int array;
      force : bool;
    }
  | Reset of int
  | Finish of int

let run ?config ?obs ?(trace = false) (p : Ir.Program.t) env =
  let cfg = match config with Some c -> c | None -> default_config ~workers:3 in
  let { machine; workers; _ } = cfg in
  assert (workers > 0);
  let module Obs = Xinv_obs in
  let emit ~at ~tid kind ~a ~b =
    match obs with None -> () | Some o -> Obs.Recorder.emit o ~at ~domain:tid kind ~a ~b
  in
  let stall ~tid cause dur =
    match obs with
    | None -> ()
    | Some o -> Obs.Recorder.stall o ~at:(Sim.Proc.now ()) ~domain:tid cause dur
  in
  let mincr = function Some c -> Obs.Metrics.incr c | None -> () in
  let m_epochs, m_misspecs, m_checks, m_ckpts =
    match obs with
    | Some o ->
        let m = Obs.Recorder.metrics o in
        ( Some (Obs.Metrics.counter m "speccross.epochs_committed"),
          Some (Obs.Metrics.counter m "speccross.misspeculations"),
          Some (Obs.Metrics.counter m "speccross.signature_checks"),
          Some (Obs.Metrics.counter m "speccross.checkpoints") )
    | None -> (None, None, None, None)
  in
  let mem = env.Ir.Env.mem in
  let ep = Epochs.make p env in
  let nepochs = ep.Epochs.count in
  let eng = Sim.Engine.create ~trace () in
  let siglog = Rt.Siglog.create ~workers in
  let ckpts = Rt.Checkpoint.create () in
  Rt.Checkpoint.save ckpts ~epoch:0 mem;
  (* The initial checkpoint happens before the simulation starts. *)
  mincr m_ckpts;
  emit ~at:0. ~tid:0 Obs.Flight.Checkpoint ~a:0 ~b:0;
  let states : (int, gstate) Hashtbl.t = Hashtbl.create 4 in
  let gen = ref 0 in
  let st = ref (fresh_gstate ~id:0 ~workers) in
  Hashtbl.replace states 0 !st;
  let checker_q =
    Sim.Channel.create ~produce_cost:machine.Sim.Machine.queue_produce
      ~consume_cost:machine.Sim.Machine.queue_consume ()
  in
  let max_epoch = ref 0 in
  let redo_from = ref 0 and redo_to = ref 0 and resume_from = ref 0 in
  let requests_total = ref 0 in
  let misspecs = ref 0 in
  let tasks_total = ref 0 in
  let injected = ref false in

  let env_of_epoch = Epochs.env_of ep and epoch_base = ep.Epochs.base in
  let hot = ep.Epochs.hot in

  (* Within-epoch DOMORE completion cells, keyed by generation:epoch; shared
     between the workers that execute the epoch. *)
  let domore_cells : (string, Sim.Mono_cell.t array) Hashtbl.t = Hashtbl.create 64 in
  (* ---------- checker thread ---------- *)
  let do_abort (s : gstate) =
    if not !(s.abort) then begin
      s.abort := true;
      incr misspecs;
      Array.iter (fun c -> Sim.Mono_cell.raise_to c wake) s.progress;
      Array.iter (fun c -> Sim.Mono_cell.raise_to c wake) s.tpos;
      Sim.Mono_cell.raise_to s.processed wake;
      Sim.Mono_cell.raise_to s.ckpt_done wake;
      Sim.Mono_cell.raise_to s.io_done wake;
      (* Release workers blocked on within-epoch DOMORE conditions: whatever
         they then compute is discarded when the checkpoint is restored. *)
      Hashtbl.iter
        (fun _ cells -> Array.iter (fun c -> Sim.Mono_cell.raise_to c wake) cells)
        domore_cells
    end
  in
  let checker () =
    let cur = ref 0 in
    let finished = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      match Sim.Channel.consume checker_q with
      | Reset g ->
          cur := g;
          finished := 0
      | Finish g ->
          if g = !cur then begin
            incr finished;
            if !finished = workers then continue_ := false
          end
      | Request r when r.gen <> !cur -> ()
      | Request r -> (
          let s = Hashtbl.find states r.gen in
          if not !(s.abort) then begin
            (* Defer until every other worker's signatures for epochs below
               [r.epoch] are complete (it reached that epoch boundary). *)
            for w' = 0 to workers - 1 do
              if w' <> r.worker then
                Sim.Mono_cell.wait_ge ~cat:Sim.Category.Checker s.progress.(w') r.epoch
            done
          end;
          if r.gen <> !gen || !(s.abort) then ()
          else begin
            let conflict = ref r.force in
            let win = ref 0 in
            let upto = if cfg.tm_style then r.epoch + 1 else r.epoch in
            for w' = 0 to workers - 1 do
              if w' <> r.worker then begin
                let n, hit =
                  Rt.Siglog.compare_window siglog ~worker:w' ~after:r.started.(w')
                    ~epoch:r.epoch ~upto r.sg
                in
                win := !win + n;
                if n > 0 then
                  Sim.Proc.advance ~label:"check" Sim.Category.Checker
                    (machine.Sim.Machine.check_per_sig *. float_of_int n);
                if hit then conflict := true
              end
            done;
            mincr m_checks;
            emit ~at:(Sim.Proc.now ()) ~tid:workers Obs.Flight.Sig_check ~a:r.epoch ~b:!win;
            if !conflict then begin
              if not !(s.abort) then begin
                mincr m_misspecs;
                emit ~at:(Sim.Proc.now ()) ~tid:workers Obs.Flight.Misspec ~a:r.epoch
                  ~b:r.worker
              end;
              do_abort s
            end
            else Sim.Mono_cell.raise_to s.processed (Sim.Mono_cell.get s.processed + 1)
          end)
    done
  in

  (* ---------- per-epoch execution ---------- *)
  let wf = Sim.Machine.work_factor machine ~threads:(workers + 1) in
  let exec_pre w env_t (il : Ir.Program.inner) =
    List.iter
      (fun (s : Ir.Stmt.t) ->
        let cat = if w = 0 then Sim.Category.Sequential else Sim.Category.Redundant in
        Sim.Proc.advance ~label:s.Ir.Stmt.name cat (wf *. s.Ir.Stmt.cost env_t);
        s.Ir.Stmt.exec env_t)
      il.Ir.Program.pre
  in
  let plain_body env_j (il : Ir.Program.inner) =
    List.iter
      (fun (s : Ir.Stmt.t) ->
        Sim.Proc.work ~label:s.Ir.Stmt.name (wf *. s.Ir.Stmt.cost env_j);
        s.Ir.Stmt.exec env_j)
      il.Ir.Program.body
  in
  (* Speculative-range throttle (dissertation 4.2.1): before advancing to
     global task position [g], wait until no thread trails by more than the
     profiled minimum dependence distance. *)
  let throttle (s : gstate) ~w g =
    (* Publish first (a blocked thread still tells the others where it is),
       then wait for every trailing thread to come within range. *)
    Sim.Mono_cell.raise_to s.tpos.(w) g;
    let floor_ = g - cfg.spec_distance + 1 in
    if floor_ > 0 then begin
      let t0 = Sim.Proc.now () in
      for w' = 0 to workers - 1 do
        if w' <> w then
          Sim.Mono_cell.wait_ge ~cat:Sim.Category.Barrier_wait s.tpos.(w') floor_
      done;
      stall ~tid:w Obs.Cause.Throttle (Sim.Proc.now () -. t0)
    end
  in
  (* Speculative bracket around one task. *)
  let run_task (s : gstate) ~w ~epoch ~g ~addrs body =
    if cfg.non_spec_barriers then body ()
    else begin
      s.positions.(w) <- g - 1;
      Sim.Proc.advance ~label:"enter_task" Sim.Category.Runtime
        machine.Sim.Machine.task_enter;
      let started = Array.copy s.positions in
      Sim.Proc.advance ~label:"spec_access" Sim.Category.Runtime
        (machine.Sim.Machine.sig_per_access *. float_of_int (List.length addrs));
      body ();
      let sg = Rt.Signature.create cfg.sig_kind in
      Rt.Signature.add_list sg addrs;
      Sim.Proc.advance ~label:"exit_task" Sim.Category.Runtime
        machine.Sim.Machine.task_exit;
      Rt.Siglog.store siglog ~worker:w ~pos:g ~epoch sg;
      let force =
        (not !injected)
        && match cfg.inject_misspec with
           | Some (e, iw) when e = epoch && iw = w ->
               injected := true;
               true
           | _ -> false
      in
      incr s.submitted;
      incr requests_total;
      Sim.Channel.produce checker_q
        (Request { gen = s.g_id; worker = w; epoch; sg; started; force });
      (* Later tasks' comparison windows exclude this one, now finished. *)
      s.positions.(w) <- g
    end
  in
  let exec_epoch_spec (s : gstate) w e =
    let il, env_t = env_of_epoch e in
    exec_pre w env_t il;
    let trip = il.Ir.Program.trip env_t in
    if w = 0 then tasks_total := !tasks_total + trip;
    match cfg.mode_of il.Ir.Program.ilabel with
    | M_doall ->
        let j = ref w in
        while !j < trip do
          let env_j = Ir.Env.with_inner env_t !j in
          let addrs = Ir.Footprint.body_filtered ~hot env_j il in
          let g = epoch_base.(e) + !j in
          throttle s ~w g;
          run_task s ~w ~epoch:e ~g ~addrs (fun () -> plain_body env_j il);
          j := !j + workers
        done
    | M_localwrite ->
        for j = 0 to trip - 1 do
          let env_j = Ir.Env.with_inner env_t j in
          let g = epoch_base.(e) + j in
          throttle s ~w g;
          let owned = Xinv_parallel.Intra.owns ~threads:workers ~tid:w env_j in
          let mine = List.exists owned il.Ir.Program.body in
          if mine then
            let addrs = Ir.Footprint.body_filtered ~hot env_j il in
            run_task s ~w ~epoch:e ~g ~addrs (fun () ->
                List.iter
                  (fun (stm : Ir.Stmt.t) ->
                    if stm.Ir.Stmt.writes = [] then begin
                      Sim.Proc.work ~label:stm.Ir.Stmt.name (wf *. stm.Ir.Stmt.cost env_j);
                      stm.Ir.Stmt.exec env_j
                    end
                    else if owned stm then begin
                      Sim.Proc.work ~label:stm.Ir.Stmt.name (wf *. stm.Ir.Stmt.cost env_j);
                      stm.Ir.Stmt.exec env_j
                    end
                    else
                      Sim.Proc.advance ~label:"own?" Sim.Category.Redundant 4.)
                  il.Ir.Program.body)
          else begin
            (* Redundant visit: the non-writing traversal plus the ownership
               check; publish progress so checker windows stay tight. *)
            s.positions.(w) <- g;
            let traversal =
              List.fold_left
                (fun acc (stm : Ir.Stmt.t) ->
                  if stm.Ir.Stmt.writes = [] then acc +. stm.Ir.Stmt.cost env_j else acc)
                0. il.Ir.Program.body
            in
            Sim.Proc.advance ~label:"visit" Sim.Category.Redundant
              ((wf *. traversal) +. 4.
              +. (2. *. float_of_int (List.length il.Ir.Program.body)))
          end
        done
    | M_domore policy ->
        (* §3.4 duplicated scheduler, scoped to this epoch: private shadow,
           shared completion cells created by the first worker to arrive. *)
        let cells =
          let key = Printf.sprintf "%d:%d" s.g_id e in
          let tbl = domore_cells in
          match Hashtbl.find_opt tbl key with
          | Some c -> c
          | None ->
              let c = Array.init workers (fun _ -> Sim.Mono_cell.create ~init:(-1) ()) in
              Hashtbl.replace tbl key c;
              c
        in
        let shadow = Rt.Shadow.create () in
        let deps = Rt.Shadow.Deps.create () in
        for j = 0 to trip - 1 do
          let env_j = Ir.Env.with_inner env_t j in
          let g = epoch_base.(e) + j in
          throttle s ~w g;
          let addrs = Ir.Footprint.body_filtered ~hot env_j il in
          let waddrs =
            List.concat_map (fun stm -> Ir.Footprint.writes env_j stm) il.Ir.Program.body
          in
          Sim.Proc.advance ~label:"sched" Sim.Category.Redundant
            (machine.Sim.Machine.sched_per_iter
            +. (machine.Sim.Machine.shadow_per_addr *. float_of_int (List.length addrs)));
          let owner =
            Xinv_domore.Policy.pick policy ~loads:None ~mem ~threads:workers ~iter:j
              ~write_addrs:waddrs
          in
          Rt.Shadow.Deps.clear deps;
          List.iter
            (fun (stm : Ir.Stmt.t) ->
              List.iter
                (fun (a : Ir.Access.t) ->
                  if hot a.Ir.Access.base then
                    Rt.Shadow.note_read_deps shadow
                      (Ir.Access.addr env_j mem a)
                      ~tid:owner ~iter:j deps)
                stm.Ir.Stmt.reads)
            il.Ir.Program.body;
          List.iter
            (fun addr -> Rt.Shadow.note_write_deps shadow addr ~tid:owner ~iter:j deps)
            waddrs;
          if owner <> w then s.positions.(w) <- g
          else
            run_task s ~w ~epoch:e ~g ~addrs (fun () ->
                Rt.Shadow.Deps.iter
                  (fun ~tid:dt ~iter:di ->
                    Sim.Mono_cell.wait_ge ~cat:Sim.Category.Sync_wait cells.(dt) di)
                  deps;
                plain_body env_j il;
                Sim.Mono_cell.raise_to cells.(w) j)
        done
  in
  (* Non-speculative re-execution of one epoch (technique preserved, barriers
     added by the caller). *)
  let exec_epoch_nonspec w e =
    let il, env_t = env_of_epoch e in
    exec_pre w env_t il;
    let trip = il.Ir.Program.trip env_t in
    match cfg.mode_of il.Ir.Program.ilabel with
    | M_doall ->
        let j = ref w in
        while !j < trip do
          plain_body (Ir.Env.with_inner env_t !j) il;
          j := !j + workers
        done
    | M_localwrite | M_domore _ ->
        (* Owner-compute, no speculation bookkeeping. *)
        for j = 0 to trip - 1 do
          let env_j = Ir.Env.with_inner env_t j in
          List.iter
            (fun (stm : Ir.Stmt.t) ->
              let owned =
                stm.Ir.Stmt.writes = []
                || Xinv_parallel.Intra.owns ~threads:workers ~tid:w env_j stm
              in
              if owned then begin
                let cat =
                  if stm.Ir.Stmt.writes = [] && w <> 0 then Sim.Category.Redundant
                  else Sim.Category.Work
                in
                Sim.Proc.advance ~label:stm.Ir.Stmt.name cat (wf *. stm.Ir.Stmt.cost env_j);
                if stm.Ir.Stmt.writes <> [] || w = 0 then stm.Ir.Stmt.exec env_j
              end)
            il.Ir.Program.body
        done
  in

  (* ---------- recovery ---------- *)
  let recover w (s : gstate) =
    let t_rec = Sim.Proc.now () in
    s.arrived_n := !(s.arrived_n) + 1;
    Sim.Mono_cell.raise_to s.arrived !(s.arrived_n);
    if w = 0 then begin
      Sim.Mono_cell.wait_ge ~cat:Sim.Category.Checkpoint s.arrived workers;
      Sim.Proc.advance ~label:"recover" Sim.Category.Checkpoint
        machine.Sim.Machine.recovery_cost;
      let ck = Rt.Checkpoint.restore ckpts ~into:mem in
      redo_from := ck;
      redo_to := Stdlib.min !max_epoch (nepochs - 1);
      resume_from := !redo_to + 1;
      Rt.Siglog.clear siglog;
      let g' = s.g_id + 1 in
      let s' = fresh_gstate ~id:g' ~workers in
      Hashtbl.replace states g' s';
      gen := g';
      st := s';
      Sim.Channel.produce checker_q (Reset g');
      Sim.Mono_cell.raise_to s.recovery_done 1
    end
    else Sim.Mono_cell.wait_ge ~cat:Sim.Category.Checkpoint s.recovery_done 1;
    (* Re-execute the misspeculated epochs with non-speculative barriers. *)
    let bar = (!st).redo_barrier in
    let barrier_cost =
      machine.Sim.Machine.barrier_base
      +. (machine.Sim.Machine.barrier_per_thread *. float_of_int workers)
    in
    for e' = !redo_from to !redo_to do
      exec_epoch_nonspec w e';
      Sim.Barrier.wait ~cost:barrier_cost bar;
      if w = 0 then begin
        mincr m_epochs;
        emit ~at:(Sim.Proc.now ()) ~tid:w Obs.Flight.Epoch_commit ~a:e' ~b:0
      end
    done;
    (* Fresh checkpoint at the resume point. *)
    if w = 0 then begin
      Sim.Proc.advance ~label:"checkpoint" Sim.Category.Checkpoint
        machine.Sim.Machine.checkpoint_cost;
      Rt.Checkpoint.save ckpts ~epoch:!resume_from mem;
      mincr m_ckpts;
      emit ~at:(Sim.Proc.now ()) ~tid:w Obs.Flight.Checkpoint ~a:!resume_from ~b:0
    end;
    Sim.Barrier.wait ~cost:0. bar;
    if w = 0 then
      emit ~at:(Sim.Proc.now ()) ~tid:w Obs.Flight.Recovery
        ~a:(!redo_to - !redo_from + 1)
        ~b:(int_of_float (Float.round (Sim.Proc.now () -. t_rec)));
    !resume_from
  in

  (* ---------- worker ---------- *)
  let worker w () =
    let e = ref 0 in
    let running = ref true in
    while !running do
      let s = !st in
      if !(s.abort) then e := recover w s
      else if !e >= nepochs then begin
        (* Region end: wait for everyone, then for the checker to drain. *)
        Sim.Mono_cell.raise_to s.progress.(w) nepochs;
        Sim.Mono_cell.raise_to s.tpos.(w) epoch_base.(nepochs);
        for w' = 0 to workers - 1 do
          if w' <> w then
            Sim.Mono_cell.wait_ge ~cat:Sim.Category.Barrier_wait s.progress.(w') nepochs
        done;
        let t0 = Sim.Proc.now () in
        Sim.Mono_cell.wait_ge ~cat:Sim.Category.Checker s.processed !(s.submitted);
        stall ~tid:w Obs.Cause.Checker_lag (Sim.Proc.now () -. t0);
        if !(s.abort) then e := recover w s
        else begin
          Sim.Channel.produce checker_q (Finish s.g_id);
          running := false
        end
      end
      else begin
        (* Epoch boundary. *)
        s.positions.(w) <- epoch_base.(!e) - 1;
        Sim.Mono_cell.raise_to s.progress.(w) !e;
        if cfg.non_spec_barriers && !e > 0 then begin
          Sim.Proc.advance ~label:"barrier" Sim.Category.Barrier_wait
            (machine.Sim.Machine.barrier_base
            +. (machine.Sim.Machine.barrier_per_thread *. float_of_int workers));
          for w' = 0 to workers - 1 do
            if w' <> w then
              Sim.Mono_cell.wait_ge ~cat:Sim.Category.Barrier_wait s.progress.(w') !e
          done
        end;
        if !max_epoch < !e then max_epoch := !e;
        if
          cfg.checkpoint_every > 0
          && !e > 0
          && !e mod cfg.checkpoint_every = 0
          && Sim.Mono_cell.get s.ckpt_done < !e
        then begin
          if w = 0 then begin
            for w' = 0 to workers - 1 do
              if w' <> w then
                Sim.Mono_cell.wait_ge ~cat:Sim.Category.Checkpoint s.progress.(w') !e
            done;
            Sim.Mono_cell.wait_ge ~cat:Sim.Category.Checkpoint s.processed !(s.submitted);
            if not !(s.abort) then begin
              Sim.Proc.advance ~label:"checkpoint" Sim.Category.Checkpoint
                machine.Sim.Machine.checkpoint_cost;
              Rt.Checkpoint.save ckpts ~epoch:!e mem;
              mincr m_ckpts;
              emit ~at:(Sim.Proc.now ()) ~tid:w Obs.Flight.Checkpoint ~a:!e ~b:0;
              Rt.Siglog.prune siglog ~upto:!e;
              Sim.Mono_cell.raise_to s.ckpt_done !e
            end
          end
          else begin
            let t0 = Sim.Proc.now () in
            Sim.Mono_cell.wait_ge ~cat:Sim.Category.Checkpoint s.ckpt_done !e;
            stall ~tid:w Obs.Cause.Rally (Sim.Proc.now () -. t0)
          end
        end;
        if !(s.abort) then e := recover w s
        else if Epochs.irreversible ep !e && not cfg.non_spec_barriers then begin
          (* Irreversible epoch: rally everyone, drain the checker, let one
             worker execute the epoch exactly once, checkpoint, resume. *)
          if w = 0 then begin
            for w' = 0 to workers - 1 do
              if w' <> w then
                Sim.Mono_cell.wait_ge ~cat:Sim.Category.Barrier_wait s.progress.(w') !e
            done;
            let t0 = Sim.Proc.now () in
            Sim.Mono_cell.wait_ge ~cat:Sim.Category.Checker s.processed !(s.submitted);
            stall ~tid:w Obs.Cause.Checker_lag (Sim.Proc.now () -. t0);
            if not !(s.abort) then begin
              let il, env_t = env_of_epoch !e in
              List.iter
                (fun (st_ : Ir.Stmt.t) ->
                  Sim.Proc.advance ~label:st_.Ir.Stmt.name Sim.Category.Sequential
                    (wf *. st_.Ir.Stmt.cost env_t);
                  st_.Ir.Stmt.exec env_t)
                il.Ir.Program.pre;
              let trip = il.Ir.Program.trip env_t in
              tasks_total := !tasks_total + trip;
              for j = 0 to trip - 1 do
                let env_j = Ir.Env.with_inner env_t j in
                List.iter
                  (fun (st_ : Ir.Stmt.t) ->
                    Sim.Proc.advance ~label:st_.Ir.Stmt.name Sim.Category.Sequential
                      (wf *. st_.Ir.Stmt.cost env_j);
                    st_.Ir.Stmt.exec env_j)
                  il.Ir.Program.body
              done;
              Sim.Proc.advance ~label:"checkpoint" Sim.Category.Checkpoint
                machine.Sim.Machine.checkpoint_cost;
              Rt.Checkpoint.save ckpts ~epoch:(!e + 1) mem;
              mincr m_ckpts;
              emit ~at:(Sim.Proc.now ()) ~tid:w Obs.Flight.Checkpoint ~a:(!e + 1) ~b:0;
              Rt.Siglog.prune siglog ~upto:(!e + 1);
              Sim.Mono_cell.raise_to s.io_done !e
            end
          end
          else Sim.Mono_cell.wait_ge ~cat:Sim.Category.Barrier_wait s.io_done !e;
          if !(s.abort) then e := recover w s
          else begin
            Sim.Mono_cell.raise_to s.tpos.(w) (epoch_base.(!e + 1) - 1);
            if w = 0 then begin
              mincr m_epochs;
              emit ~at:(Sim.Proc.now ()) ~tid:w Obs.Flight.Epoch_commit ~a:!e ~b:0
            end;
            incr e
          end
        end
        else begin
          (* Everything of mine below this epoch is complete. *)
          Sim.Mono_cell.raise_to s.tpos.(w) (epoch_base.(!e) - 1);
          exec_epoch_spec s w !e;
          if w = 0 && not !(s.abort) then begin
            mincr m_epochs;
            emit ~at:(Sim.Proc.now ()) ~tid:w Obs.Flight.Epoch_commit ~a:!e ~b:0
          end;
          incr e
        end
      end
    done
  in
  for w = 0 to workers - 1 do
    ignore (Sim.Engine.spawn eng ~name:(Printf.sprintf "spec%d" w) (worker w))
  done;
  ignore (Sim.Engine.spawn eng ~name:"checker" checker);
  Sim.Engine.run eng;
  Xinv_parallel.Run.make ~technique:"SPECCROSS" ~threads:(workers + 1)
    ~makespan:(Sim.Engine.now eng) ~engine:eng ~tasks:!tasks_total
    ~invocations:(Ir.Program.invocations p) ~checks:!requests_total
    ~misspecs:!misspecs ?recorder:obs ()
