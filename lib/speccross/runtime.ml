module Sim = Xinv_sim
module Ir = Xinv_ir
module Rt = Xinv_runtime
module Obs = Xinv_obs
module P = Protocol

type mode = P.mode = M_doall | M_localwrite | M_domore of Xinv_domore.Policy.t

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

(* Sentinel larger than any frontier value, used to release waiters on abort. *)
let wake = max_int / 2

(* One generation: the frontiers and checker accounting of the speculation
   between two recoveries. *)
type gstate = {
  g_id : int;
  progress : Sim.Mono_cell.t array;
  tpos : Sim.Mono_cell.t array;
  dpos : Sim.Mono_cell.t array;
  done_ : Sim.Mono_cell.t array;
  ckpt_done : Sim.Mono_cell.t;
  io_done : Sim.Mono_cell.t;
  mutable submitted : int;
  processed : Sim.Mono_cell.t;
  mutable abort : bool;
  mutable arrived_n : int;
  arrived : Sim.Mono_cell.t;
  recovery_done : Sim.Mono_cell.t;
}

let fresh_gstate ~id ~workers =
  let cells () = Array.init workers (fun _ -> Sim.Mono_cell.create ~init:(-1) ()) in
  {
    g_id = id;
    progress = cells ();
    tpos = cells ();
    dpos = cells ();
    done_ = cells ();
    ckpt_done = Sim.Mono_cell.create ~init:(-1) ();
    io_done = Sim.Mono_cell.create ~init:(-1) ();
    submitted = 0;
    processed = Sim.Mono_cell.create ~init:0 ();
    abort = false;
    arrived_n = 0;
    arrived = Sim.Mono_cell.create ~init:0 ();
    recovery_done = Sim.Mono_cell.create ~init:0 ();
  }

type cmsg = Request of int * P.request | Reset of int | Finish of int

(* One simulated run: the checker's channel, [Mono_cell] frontiers per
   generation, and every charge of the protocol in virtual cycles. *)
type machine = {
  mc : Sim.Machine.t;
  obs : Obs.Recorder.t option;
  eng : Sim.Engine.t;
  workers : int;
  wf : float;
  bodies : Ir.Program.inner -> Ir.Footprint.touch array;  (* resolved once *)
  q : cmsg Sim.Channel.t;
  mutable st : gstate;  (* the newest generation *)
  cur : gstate array;  (* per worker: the generation it runs in *)
  mutable c_gen : int;  (* the checker's generation, in channel order *)
  mutable c_finished : int;
}

module Machine = struct
  type t = machine

  let cell s f p =
    match (f : P.frontier) with
    | P.Progress -> s.progress.(p)
    | P.Tpos -> s.tpos.(p)
    | P.Dpos -> s.dpos.(p)
    | P.Done -> s.done_.(p)
    | P.Ckpt -> s.ckpt_done
    | P.Io -> s.io_done

  let publish m ~w f v = Sim.Mono_cell.raise_to (cell m.cur.(w) f w) v
  let get m ~w f p = Sim.Mono_cell.get (cell m.cur.(w) f p)

  let category = function
    | P.Range | P.Rally -> Sim.Category.Barrier_wait
    | P.Ckpt_rally -> Sim.Category.Checkpoint
    | P.Drain -> Sim.Category.Checker
    | P.Dep -> Sim.Category.Sync_wait

  let wait_ge m ~w why c v =
    let t0 = Sim.Engine.now m.eng in
    Sim.Mono_cell.wait_ge ~cat:(category why) c v;
    match m.obs with
    | Some o ->
        let now = Sim.Engine.now m.eng in
        Obs.Recorder.stall o ~at:now ~domain:w (P.cause why) (now -. t0)
    | None -> ()

  let await m ~w why f p v = wait_ge m ~w why (cell m.cur.(w) f p) v

  let await_drained m ~w why =
    let s = m.cur.(w) in
    wait_ge m ~w why s.processed s.submitted

  let await_abort m ~w = wait_ge m ~w P.Drain m.cur.(w).processed wake

  let charge m (c : P.cost) =
    let mc = m.mc in
    let adv label cat dt = Sim.Proc.advance ~label cat dt in
    match c with
    | P.Enter -> adv "enter_task" Sim.Category.Runtime mc.Sim.Machine.task_enter
    | P.Access n ->
        adv "spec_access" Sim.Category.Runtime
          (mc.Sim.Machine.sig_per_access *. float_of_int n)
    | P.Exit -> adv "exit_task" Sim.Category.Runtime mc.Sim.Machine.task_exit
    | P.Check n ->
        adv "check" Sim.Category.Checker (mc.Sim.Machine.check_per_sig *. float_of_int n)
    | P.Schedule n ->
        adv "sched" Sim.Category.Redundant
          (mc.Sim.Machine.sched_per_iter +. (mc.Sim.Machine.shadow_per_addr *. float_of_int n))
    | P.Barrier ->
        adv "barrier" Sim.Category.Barrier_wait
          (mc.Sim.Machine.barrier_base
          +. (mc.Sim.Machine.barrier_per_thread *. float_of_int m.workers))
    | P.Checkpoint -> adv "checkpoint" Sim.Category.Checkpoint mc.Sim.Machine.checkpoint_cost
    | P.Recovery -> adv "recover" Sim.Category.Checkpoint mc.Sim.Machine.recovery_cost

  let step m cat env (s : Ir.Stmt.t) =
    Sim.Proc.advance ~label:s.Ir.Stmt.name cat (m.wf *. s.Ir.Stmt.cost env);
    s.Ir.Stmt.exec env

  let exec m ~w (k : P.kind) env (il : Ir.Program.inner) =
    let body = il.Ir.Program.body in
    match k with
    | P.Pre ->
        let cat = if w = 0 then Sim.Category.Sequential else Sim.Category.Redundant in
        List.iter (step m cat env) il.Ir.Program.pre
    | P.Seq ->
        List.iter (step m Sim.Category.Sequential env) il.Ir.Program.pre;
        for j = 0 to il.Ir.Program.trip env - 1 do
          List.iter (step m Sim.Category.Sequential (Ir.Env.with_inner env j)) body
        done
    | P.Doall -> List.iter (step m Sim.Category.Work env) body
    | P.Localwrite ->
        Array.iter
          (fun (t : Ir.Footprint.touch) ->
            if
              Array.length t.Ir.Footprint.writes = 0
              || Xinv_parallel.Intra.owns ~threads:m.workers ~tid:w env t
            then step m Sim.Category.Work env t.Ir.Footprint.stmt
            else Sim.Proc.advance ~label:"own?" Sim.Category.Redundant 4.)
          (m.bodies il)
    | P.Skip ->
        (* The non-writing traversal plus the ownership check. *)
        let traversal =
          List.fold_left
            (fun acc (stm : Ir.Stmt.t) ->
              if stm.Ir.Stmt.writes = [] then acc +. stm.Ir.Stmt.cost env else acc)
            0. body
        in
        Sim.Proc.advance ~label:"visit" Sim.Category.Redundant
          ((m.wf *. traversal) +. 4. +. (2. *. float_of_int (List.length body)))

  let submit m (r : P.request) =
    let s = m.cur.(r.P.worker) in
    s.submitted <- s.submitted + 1;
    Sim.Channel.produce m.q (Request (s.g_id, r))

  let finish m ~w = Sim.Channel.produce m.q (Finish m.cur.(w).g_id)

  let rec take m =
    match Sim.Channel.consume m.q with
    | Reset g ->
        m.c_gen <- g;
        m.c_finished <- 0;
        take m
    | Finish g ->
        if g = m.c_gen then m.c_finished <- m.c_finished + 1;
        if m.c_finished = m.workers then None else take m
    | Request (g, r) ->
        (* Only the checker aborts, so a live generation stays live while
           it waits for every other worker to reach the request's epoch
           (every signature of its window is then in the log). *)
        let s = m.st in
        if g <> m.c_gen || g <> s.g_id || s.abort then take m
        else begin
          for p = 0 to m.workers - 1 do
            if p <> r.P.worker then
              Sim.Mono_cell.wait_ge ~cat:Sim.Category.Checker s.progress.(p) r.P.epoch
          done;
          Some r
        end

  let verdict m _ conflict =
    let s = m.st in
    if conflict then begin
      s.abort <- true;
      let release c = Sim.Mono_cell.raise_to c wake in
      Array.iter release s.progress;
      Array.iter release s.tpos;
      release s.processed;
      release s.ckpt_done;
      release s.io_done;
      Array.iter release s.done_
    end
    else Sim.Mono_cell.raise_to s.processed (Sim.Mono_cell.get s.processed + 1)

  let rally m ~w =
    let s = m.cur.(w) in
    s.arrived_n <- s.arrived_n + 1;
    Sim.Mono_cell.raise_to s.arrived s.arrived_n;
    if w = 0 then Sim.Mono_cell.wait_ge ~cat:Sim.Category.Checkpoint s.arrived m.workers

  let reset m =
    let g = m.st.g_id + 1 in
    m.st <- fresh_gstate ~id:g ~workers:m.workers;
    Sim.Channel.produce m.q (Reset g)

  (* Workers other than 0 wait on their old generation's cell, and only
     then move to the new one. *)
  let resume m ~w =
    let s = m.cur.(w) in
    if w = 0 then Sim.Mono_cell.raise_to s.recovery_done 1
    else Sim.Mono_cell.wait_ge ~cat:Sim.Category.Checkpoint s.recovery_done 1;
    m.cur.(w) <- m.st

  let aborted m ~w = m.cur.(w).abort
  let abandon _ ~w:_ = false
  let containable _ _ = false
  let fault _ ~domain:_ ~site:_ = ()
  let clock m = Sim.Engine.now m.eng

  let record m ~domain kind ~a ~b =
    match m.obs with
    | None -> ()
    | Some o -> Obs.Recorder.emit o ~at:(Sim.Engine.now m.eng) ~domain kind ~a ~b

  let run m fns =
    let n = Array.length fns - 1 in
    Array.iteri
      (fun i f ->
        let name = if i < n then Printf.sprintf "spec%d" i else "checker" in
        ignore (Sim.Engine.spawn m.eng ~name f))
      fns;
    Sim.Engine.run m.eng
end

module Engine = P.Make (Machine)

let run ?config ?obs ?(trace = false) (p : Ir.Program.t) env =
  let cfg = match config with Some c -> c | None -> default_config ~workers:3 in
  let { machine = mc; workers; _ } = cfg in
  let g0 = fresh_gstate ~id:0 ~workers in
  let m =
    {
      mc;
      obs;
      eng = Sim.Engine.create ~trace ();
      workers;
      wf = Sim.Machine.work_factor mc ~threads:(workers + 1);
      bodies = Ir.Footprint.bodies env.Ir.Env.mem p;
      q =
        Sim.Channel.create ~produce_cost:mc.Sim.Machine.queue_produce
          ~consume_cost:mc.Sim.Machine.queue_consume ();
      st = g0;
      cur = Array.make workers g0;
      c_gen = 0;
      c_finished = 0;
    }
  in
  let c =
    Engine.run m
      { P.workers; sig_kind = cfg.sig_kind; checkpoint_every = cfg.checkpoint_every;
        spec_distance = cfg.spec_distance; mode_of = cfg.mode_of;
        inject_misspec = cfg.inject_misspec; non_spec_barriers = cfg.non_spec_barriers;
        tm_style = cfg.tm_style; grain = 1 }
      p env
  in
  Xinv_parallel.Run.make ~technique:"SPECCROSS" ~threads:(workers + 1)
    ~makespan:(Sim.Engine.now m.eng) ~engine:m.eng ~tasks:c.P.tasks
    ~invocations:(Ir.Program.invocations p) ~checks:c.P.checks ~misspecs:c.P.misspecs
    ~barrier_episodes:c.P.barriers ~checkpoints:c.P.checkpoints
    ~epochs_redone:c.P.epochs_redone ~recovery_time:c.P.recovery_time
    ~signatures_compared:c.P.signatures_compared ?recorder:obs ()
