module Ir = Xinv_ir
module Rt = Xinv_runtime
module Obs = Xinv_obs

type config = {
  policy : Xinv_domore.Policy.t;
  workers : int;
  work : Work.t;
  grain : int;
  batch : int;
}

let default_config ~workers =
  { policy = Xinv_domore.Policy.Round_robin; workers; work = Work.Off; grain = 1;
    batch = 32 }

(* Words per worker queue. *)
let queue_capacity = 1024

(* Do-task framing: the Sync_cond encoding never produces tag 3, so a header
   word with low bits 11 is unambiguous on the same queue.  Bit 2
   distinguishes the single-iteration frame [hdr; t; j; iter] from the
   chunked frame [hdr; t; j0; len; iter0] carrying [len] consecutive
   iterations — grain 1 keeps the wire format (and word count) of the
   original per-iteration protocol. *)
let do_header inner = 3 lor (inner lsl 3)
let do_chunk_header inner = 7 lor (inner lsl 3)

(* Per-worker completion frontiers: [at.(w)] is the last iteration worker [w]
   finished, and [wake.(w)] is signalled after every store to it. *)
type cells = { at : int Atomic.t array; wake : Wake.t array }

let new_cells workers =
  { at = Array.init workers (fun _ -> Pad.atomic (-1));
    wake = Array.init workers (fun _ -> Wake.create ()) }

let complete cells w iter =
  Atomic.set cells.at.(w) iter;
  Wake.signal cells.wake.(w)

(* [domain] is this waiter's flight ring, [src] the ring of the worker the
   condition points at; the recv lands in the waiter's ring once satisfied. *)
let wait_cell ~wd ~role ~stat ?fr ~domain ~src cells dep_tid dep_iter =
  if Atomic.get cells.at.(dep_tid) < dep_iter then
    Stallcat.timed ?fr ~domain stat Stallcat.Sync_cond (fun () ->
        Watchdog.wait ~wd ~role
          ~for_:(Printf.sprintf "iteration %d of worker %d" dep_iter dep_tid)
          ~on:[ cells.wake.(dep_tid) ]
          (fun () -> Atomic.get cells.at.(dep_tid) >= dep_iter));
  match fr with
  | Some f -> Obs.Flight.record f ~domain Obs.Flight.Sync_recv ~a:dep_iter ~b:src
  | None -> ()

let run ~pool ?wd ?fault ?fr ?config ~(plan : Ir.Mtcg.plan) (p : Ir.Program.t) env =
  let config = match config with Some c -> c | None -> default_config ~workers:3 in
  let { policy; workers; work; grain; batch } = config in
  (* Flight ring mapping: scheduler -> 0, worker w -> w+1. *)
  let ev k ~domain ~a ~b =
    match fr with Some f -> Obs.Flight.record f ~domain k ~a ~b | None -> ()
  in
  assert (workers > 0);
  if grain <= 0 then invalid_arg "Ndomore.run: grain must be positive";
  if workers > Pool.workers pool then invalid_arg "Ndomore.run: pool too small";
  if plan.Ir.Mtcg.scheduler_extra <> [] then
    invalid_arg "Ndomore.run: body statements re-partitioned into the scheduler";
  let wd = match wd with Some w -> w | None -> Watchdog.unbounded () in
  let stat = Stallcat.create () in
  let queues =
    Array.init workers (fun _ -> Spsc.create ~dummy:0 ~capacity:queue_capacity)
  in
  let bufs =
    Array.init workers (fun w -> Spsc.Batch.create ~size:(max 1 batch) queues.(w))
  in
  let cells = new_cells workers in
  let shadow = Rt.Shadow.create () in
  let iternum = ref 0 in
  let conds = ref 0 in
  let bodies = Array.of_list p.Ir.Program.inners in
  let loads = Array.make workers 0 in
  let loads_opt = Some loads in
  let sample_loads = policy = Xinv_domore.Policy.Least_loaded in
  let deps = Rt.Shadow.Deps.create () in
  let end_word = Rt.Sync_cond.to_int Rt.Sync_cond.End_token in
  let scheduler () =
    let role = "scheduler" in
    (* Blocking word push through the write-combining buffers.  A blocked
       producer must keep draining *every* buffer: the words that would let
       the consumer it waits on make progress may sit, still unpublished, in
       a peer's buffer. *)
    let drain_all () =
      let all = ref true in
      for w' = 0 to workers - 1 do
        if not (Spsc.Batch.try_flush bufs.(w')) then all := false
      done;
      !all
    in
    let space = Array.to_list (Array.map Spsc.on_pop queues) in
    let push_word tid word =
      if not (Spsc.Batch.add bufs.(tid) word) then
        Stallcat.timed ?fr ~domain:0 stat Stallcat.Queue_full (fun () ->
            Watchdog.wait ~wd ~role
              ~for_:(Printf.sprintf "space on worker %d's queue" tid)
              ~on:space
              (fun () ->
                ignore (drain_all ());
                Spsc.Batch.add bufs.(tid) word))
    in
    let flush_all () =
      if not (drain_all ()) then
        Stallcat.timed ?fr ~domain:0 stat Stallcat.Queue_full (fun () ->
            Watchdog.wait ~wd ~role ~for_:"worker queue space (flush)" ~on:space
              drain_all)
    in
    (* The one open chunk: a run of consecutive iterations bound for the
       same worker, sealed into a frame when the run breaks (different
       worker / invocation), fills up to [grain], or a sync condition must
       be ordered before the next iteration. *)
    let c_tid = ref (-1) and c_inner = ref 0 and c_t = ref 0 in
    let c_j = ref 0 and c_iter = ref 0 and c_len = ref 0 in
    let nsealed = ref 0 in
    let seal () =
      if !c_len > 0 then begin
        let tid = !c_tid in
        if !c_len = 1 then begin
          push_word tid (do_header !c_inner);
          push_word tid !c_t;
          push_word tid !c_j;
          push_word tid !c_iter
        end
        else begin
          push_word tid (do_chunk_header !c_inner);
          push_word tid !c_t;
          push_word tid !c_j;
          push_word tid !c_len;
          push_word tid !c_iter
        end;
        ev Obs.Flight.Dispatch ~domain:0 ~a:!c_iter ~b:(tid + 1);
        incr nsealed;
        if !nsealed land 63 = 0 then
          ev Obs.Flight.Queue_sample ~domain:0 ~a:tid
            ~b:(Spsc.length queues.(tid));
        c_len := 0;
        c_tid := -1
      end
    in
    let sched () =
      for t = 0 to p.Ir.Program.outer_trip - 1 do
        let env_t = Ir.Env.with_outer env t in
        Array.iteri
          (fun ii (il : Ir.Program.inner) ->
            Nbarrier.exec_pre work env_t il;
            let slice = Ir.Mtcg.slice_for plan il.Ir.Program.ilabel in
            let trip = il.Ir.Program.trip env_t in
            for j = 0 to trip - 1 do
              Fault.inject fault Fault.Scheduler_die ~domain:0 ~site:!iternum;
              if sample_loads then
                for w = 0 to workers - 1 do
                  loads.(w) <- Spsc.length queues.(w) + Spsc.Batch.pending bufs.(w)
                done;
              let tid =
                Xinv_domore.Policy.assign policy slice shadow deps ~loads:loads_opt
                  ~threads:workers ~iter:!iternum ~slot:(!iternum / grain)
                  (Ir.Env.with_inner env_t j)
              in
              (* A stalled queue: the producer wedges and the consumer
                 starves — exactly what the watchdog must detect. *)
              if Fault.fires fault Fault.Queue_stall ~domain:tid ~site:!iternum
              then Watchdog.park wd ~role;
              (* A poisoned sync condition: the worker is told to await an
                 iteration number no execution can ever reach. *)
              if Fault.fires fault Fault.Poison_cond ~domain:tid ~site:!iternum
              then begin
                seal ();
                incr conds;
                push_word tid
                  (Rt.Sync_cond.to_int
                     (Rt.Sync_cond.Wait
                        { dep_tid = tid; dep_iter = Rt.Sync_cond.max_iter }));
                ev Obs.Flight.Sync_send ~domain:0 ~a:Rt.Sync_cond.max_iter
                  ~b:(tid + 1)
              end;
              if Rt.Shadow.Deps.length deps > 0 then begin
                (* Conditions must precede this iteration's frame on [tid]'s
                   queue, so any open chunk is sealed first. *)
                seal ();
                Rt.Shadow.Deps.iter
                  (fun ~tid:dt ~iter:di ->
                    incr conds;
                    push_word tid
                      (Rt.Sync_cond.to_int
                         (Rt.Sync_cond.Wait { dep_tid = dt; dep_iter = di }));
                    ev Obs.Flight.Sync_send ~domain:0 ~a:di ~b:(tid + 1))
                  deps
              end;
              if
                !c_len > 0 && !c_tid = tid && !c_inner = ii && !c_t = t
                && !c_j + !c_len = j && !c_len < grain
              then incr c_len
              else begin
                seal ();
                c_tid := tid;
                c_inner := ii;
                c_t := t;
                c_j := j;
                c_iter := !iternum;
                c_len := 1
              end;
              incr iternum
            done)
          bodies
      done;
      seal ()
    in
    sched ();
    for w = 0 to workers - 1 do
      push_word w end_word
    done;
    flush_all ()
  in
  let worker w () =
    let role = Printf.sprintf "worker %d" w in
    let q = queues.(w) in
    (* Local read buffer: one atomic head update per refill instead of one
       per word.  The blocking single-word pop only runs when a refill found
       the ring empty. *)
    let rbuf = Array.make 64 0 in
    let rpos = ref 0 and rlen = ref 0 in
    let next_word () =
      if !rpos < !rlen then begin
        let word = rbuf.(!rpos) in
        incr rpos;
        word
      end
      else begin
        let n = Spsc.pop_chunk q rbuf ~pos:0 ~len:(Array.length rbuf) in
        if n > 0 then begin
          rpos := 1;
          rlen := n;
          rbuf.(0)
        end
        else
          Stallcat.timed ?fr ~domain:(w + 1) stat Stallcat.Queue_empty
            (fun () -> Spsc.pop ~wd ~role q)
      end
    in
    let exec_one env_t inner j iter =
      Fault.inject fault Fault.Worker_raise ~domain:w ~site:iter;
      let il = bodies.(inner) in
      List.iter (Work.exec work (Ir.Env.with_inner env_t j)) il.Ir.Program.body;
      complete cells w iter
    in
    let continue_ = ref true in
    while !continue_ do
      let word = next_word () in
      if word land 3 = 3 then begin
        let inner = word lsr 3 in
        let t = next_word () in
        let env_t = Ir.Env.with_outer env t in
        if word land 4 = 0 then begin
          let j = next_word () in
          let iter = next_word () in
          exec_one env_t inner j iter
        end
        else begin
          let j0 = next_word () in
          let len = next_word () in
          let iter0 = next_word () in
          for k = 0 to len - 1 do
            exec_one env_t inner (j0 + k) (iter0 + k)
          done
        end
      end
      else
        match Rt.Sync_cond.of_int word with
        | Rt.Sync_cond.End_token -> continue_ := false
        | Rt.Sync_cond.No_sync _ -> ()
        | Rt.Sync_cond.Wait { dep_tid; dep_iter } ->
            wait_cell ~wd ~role ~stat ?fr ~domain:(w + 1) ~src:(dep_tid + 1)
              cells dep_tid dep_iter
    done
  in
  let fns =
    Array.init (workers + 1) (fun i ->
        if i = 0 then scheduler else worker (i - 1))
  in
  let wall_ns = Nrun.timed (fun () -> Pool.run ~wd pool fns) in
  Nrun.make ~technique:"native-DOMORE" ~domains:(workers + 1) ~workers ~wall_ns
    ~tasks:!iternum ~invocations:(Ir.Program.invocations p) ~conds:!conds
    ~checks:!conds ~stalls:(Stallcat.to_list stat) ()

let run_duplicated ~pool ?wd ?fault ?fr ?config ~(plan : Ir.Mtcg.plan)
    (p : Ir.Program.t) env =
  let config = match config with Some c -> c | None -> default_config ~workers:4 in
  let { policy; workers; work; batch; _ } = config in
  (* Flight ring mapping: worker tid -> ring tid (no scheduler domain). *)
  let ev k ~domain ~a ~b =
    match fr with Some f -> Obs.Flight.record f ~domain k ~a ~b | None -> ()
  in
  assert (workers > 0);
  if workers - 1 > Pool.workers pool then
    invalid_arg "Ndomore.run_duplicated: pool too small";
  if plan.Ir.Mtcg.scheduler_extra <> [] then
    invalid_arg "Ndomore.run_duplicated: body statements re-partitioned into the scheduler";
  let wd = match wd with Some w -> w | None -> Watchdog.unbounded () in
  let stat = Stallcat.create () in
  let cells = new_cells workers in
  let batch = max 1 batch in
  let tasks = ref 0 in
  let worker tid () =
    let role = Printf.sprintf "worker %d" tid in
    let shadow = Rt.Shadow.create () in
    let deps = Rt.Shadow.Deps.create () in
    let iternum = ref 0 in
    (* Write-combined completion frontier: the cell is published every
       [batch] owned iterations instead of after each one.  It must also be
       published before blocking on a peer (our completed work may be
       exactly what unblocks the chain back to us) and at every invocation
       end (peers can wait on our final iterations). *)
    let last_done = ref (-1) in
    let unpublished = ref 0 in
    let publish () =
      if !unpublished > 0 then begin
        complete cells tid !last_done;
        unpublished := 0;
        ev Obs.Flight.Epoch_commit ~domain:tid ~a:!last_done ~b:0
      end
    in
    for t = 0 to p.Ir.Program.outer_trip - 1 do
      let env_t = Ir.Env.with_outer env t in
      List.iter
        (fun (il : Ir.Program.inner) ->
          (* Sequential region duplicated on every domain; privatizable
             per-invocation slots make the replicated writes idempotent
             (same values in racy stores — benign under the OCaml memory
             model for these int/float arrays). *)
          Nbarrier.exec_pre work env_t il;
          let slice = Ir.Mtcg.slice_for plan il.Ir.Program.ilabel in
          let trip = il.Ir.Program.trip env_t in
          if tid = 0 then tasks := !tasks + trip;
          for j = 0 to trip - 1 do
            let env_j = Ir.Env.with_inner env_t j in
            let owner =
              Xinv_domore.Policy.assign policy slice shadow deps ~loads:None
                ~threads:workers ~iter:!iternum ~slot:!iternum env_j
            in
            if owner = tid then begin
              Fault.inject fault Fault.Worker_raise ~domain:tid ~site:!iternum;
              if Fault.fires fault Fault.Poison_cond ~domain:tid ~site:!iternum
              then Watchdog.park wd ~role;
              Rt.Shadow.Deps.iter
                (fun ~tid:dt ~iter:di ->
                  if Atomic.get cells.at.(dt) < di then begin
                    publish ();
                    wait_cell ~wd ~role ~stat ?fr ~domain:tid ~src:dt cells dt
                      di
                  end)
                deps;
              List.iter (Work.exec work env_j) il.Ir.Program.body;
              last_done := !iternum;
              incr unpublished;
              if !unpublished >= batch then publish ()
            end;
            incr iternum
          done;
          publish ())
        p.Ir.Program.inners
    done;
    publish ()
  in
  let wall_ns =
    Nrun.timed (fun () -> Pool.run ~wd pool (Array.init workers worker))
  in
  Nrun.make ~technique:"native-DOMORE-dup" ~domains:workers ~workers ~wall_ns
    ~tasks:!tasks ~invocations:(Ir.Program.invocations p)
    ~stalls:(Stallcat.to_list stat) ()
