module Sim = Xinv_sim
module Ir = Xinv_ir
module Obs = Xinv_obs

type config = { machine : Sim.Machine.t; policy : Policy.t; workers : int }

let default_config ~workers =
  { machine = Sim.Machine.default; policy = Policy.Round_robin; workers }

(* One simulated run: per-message channel costs, [latestFinished] cells,
   and every charge of the protocol in virtual cycles. *)
type machine = {
  machine : Sim.Machine.t;
  obs : Obs.Recorder.t option;
  eng : Sim.Engine.t;
  queues : Protocol.msg Sim.Channel.t array;
  cells : Sim.Mono_cell.t array;
  wf : float;
  sched : Sim.Category.t;  (* what scheduling is charged to *)
  base : int;  (* engine thread of worker 0 *)
  name : int -> string;
}

module Machine = struct
  type t = machine

  let queue_length m w = Sim.Channel.length m.queues.(w)
  let send m w msg = Sim.Channel.produce m.queues.(w) msg

  let recv m w =
    match m.obs with
    | None -> Sim.Channel.consume m.queues.(w)
    | Some o ->
        let t0 = Sim.Proc.now () in
        let msg = Sim.Channel.consume m.queues.(w) in
        let dur = Sim.Proc.now () -. t0 -. m.machine.Sim.Machine.queue_consume in
        Obs.Recorder.stall o ~at:(Sim.Proc.now ()) ~domain:(m.base + w) Obs.Cause.Queue_empty
          dur;
        msg

  let flush _ = ()
  let frontier m w = Sim.Mono_cell.get m.cells.(w)
  let publish m w iter = Sim.Mono_cell.set m.cells.(w) iter

  let await m ~self w iter =
    match m.obs with
    | None -> Sim.Mono_cell.wait_ge ~cat:Sim.Category.Sync_wait m.cells.(w) iter
    | Some o ->
        let t0 = Sim.Proc.now () in
        Sim.Mono_cell.wait_ge ~cat:Sim.Category.Sync_wait m.cells.(w) iter;
        Obs.Recorder.stall o ~at:(Sim.Proc.now ()) ~domain:(m.base + self)
          Obs.Cause.Sync_cond (Sim.Proc.now () -. t0)

  let exec m role env (s : Ir.Stmt.t) =
    let label = s.Ir.Stmt.name and cost = m.wf *. s.Ir.Stmt.cost env in
    (match role with
    | Protocol.Seq -> Sim.Proc.advance ~label Sim.Category.Sequential cost
    | Protocol.Redundant -> Sim.Proc.advance ~label Sim.Category.Redundant cost
    | Protocol.Body -> Sim.Proc.work ~label cost);
    s.Ir.Stmt.exec env

  let schedule m slice =
    Sim.Proc.advance ~label:"computeAddr" m.sched
      (Ir.Slice.cost_per_iter slice +. m.machine.Sim.Machine.sched_per_iter)

  let shadow m (slice : Ir.Slice.t) =
    Sim.Proc.advance ~label:"shadow" m.sched
      (m.machine.Sim.Machine.shadow_per_addr
      *. float_of_int (List.length slice.Ir.Slice.reads + List.length slice.Ir.Slice.writes))

  (* Figure 3.9: a duplicated scheduler produces and consumes its own
     conditions. *)
  let self_conds m n =
    Sim.Proc.advance ~label:"conds" Sim.Category.Queue
      (float_of_int n
      *. (m.machine.Sim.Machine.queue_produce +. m.machine.Sim.Machine.queue_consume))

  let record m ~domain kind ~a ~b =
    match m.obs with
    | Some o -> Obs.Recorder.emit o ~at:(Sim.Proc.now ()) ~domain kind ~a ~b
    | None -> ()

  let fault _ _ ~domain:_ ~site:_ = false

  let run m fns =
    Array.iteri (fun i f -> ignore (Sim.Engine.spawn m.eng ~name:(m.name i) f)) fns;
    Sim.Engine.run m.eng
end

module Engine = Protocol.Make (Machine)

let machine ?obs ?(trace = false) ~queues ~threads ~sched ~base ~name (c : config) =
  let mc = c.machine in
  {
    machine = mc;
    obs;
    eng = Sim.Engine.create ~trace ();
    queues =
      Array.init queues (fun _ ->
          Sim.Channel.create ~produce_cost:mc.Sim.Machine.queue_produce
            ~consume_cost:mc.Sim.Machine.queue_consume ());
    cells = Array.init c.workers (fun _ -> Sim.Mono_cell.create ~init:(-1) ());
    wf = Sim.Machine.work_factor mc ~threads;
    sched;
    base;
    name;
  }

let result m ~technique ~threads p (c : Protocol.counts) =
  Xinv_parallel.Run.make ~technique ~threads ~makespan:(Sim.Engine.now m.eng) ~engine:m.eng
    ~tasks:c.Protocol.tasks ~invocations:(Ir.Program.invocations p) ~checks:c.Protocol.conds
    ?recorder:m.obs ()

let run ?config ?obs ?trace ~(plan : Ir.Mtcg.plan) (p : Ir.Program.t) env =
  let config = match config with Some c -> c | None -> default_config ~workers:3 in
  let { policy; workers; _ } = config in
  let name i = if i = 0 then "scheduler" else Printf.sprintf "worker%d" (i - 1) in
  let m =
    machine ?obs ?trace ~queues:workers ~threads:(workers + 1) ~sched:Sim.Category.Runtime
      ~base:1 ~name config
  in
  let c = Engine.centralized m ~policy ~workers ~grain:1 ~plan p env in
  result m ~technique:"DOMORE" ~threads:(workers + 1) p c

let run_duplicated ?config ?obs ~(plan : Ir.Mtcg.plan) (p : Ir.Program.t) env =
  let config = match config with Some c -> c | None -> default_config ~workers:4 in
  let { policy; workers; _ } = config in
  let m =
    machine ?obs ~queues:0 ~threads:workers ~sched:Sim.Category.Redundant ~base:0
      ~name:(Printf.sprintf "dup%d") config
  in
  let c = Engine.duplicated m ~policy ~workers ~batch:1 ~plan p env in
  result m ~technique:"DOMORE-dup" ~threads:workers p c

let scheduler_worker_ratio (r : Xinv_parallel.Run.t) =
  let eng = r.Xinv_parallel.Run.engine in
  let sched = Sim.Engine.busy eng 0 -. Sim.Engine.charged eng 0 Sim.Category.Idle in
  let work = Sim.Engine.total eng Sim.Category.Work in
  if work <= 0. then infinity else sched /. work
