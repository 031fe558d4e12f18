module Ir = Xinv_ir
module Obs = Xinv_obs
module P = Xinv_domore.Protocol

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

(* A worker's local read buffer: one atomic head update per refill instead
   of one per word.  Padded, with trailing filler in [rbuf], so two workers'
   buffers never share a line. *)
type reader = { rbuf : int array; mutable rpos : int; mutable rlen : int }

let read_chunk = 64

(* One native run: [Spsc] rings fed through [Spsc.Batch] write-combining
   buffers, padded [Atomic] completion frontiers woken through [Wake], and
   every wait bounded by [wd]. *)
type machine = {
  pool : Pool.t;
  wd : Watchdog.t;
  fault : Fault.t option;
  fr : Obs.Flight.t option;
  stat : Stallcat.t;
  work : Work.t;
  base : int;  (* flight ring of worker 0 *)
  queues : int Spsc.t array;
  bufs : int Spsc.Batch.b array;
  space : Wake.t list;  (* every queue's pop wake point *)
  readers : reader array;
  at : int Atomic.t array;  (* [at.(w)]: the last iteration worker [w] published *)
  wake : Wake.t array;  (* signalled after every store to [at.(w)] *)
  mutable wall_ns : float;
}

module Machine = struct
  type t = machine

  let role w = Printf.sprintf "worker %d" w

  let queue_length m w = Spsc.length m.queues.(w) + Spsc.Batch.pending m.bufs.(w)

  let drain_all m =
    Array.fold_left (fun all b -> Spsc.Batch.try_flush b && all) true m.bufs

  (* A blocked producer keeps draining every buffer: the words that would
     let the consumer it waits on make progress may sit, still unpublished,
     in a peer's buffer. *)
  let push m w word =
    if not (Spsc.Batch.add m.bufs.(w) word) then
      Stallcat.timed ?fr:m.fr ~domain:0 m.stat Stallcat.Queue_full (fun () ->
          Watchdog.wait ~wd:m.wd ~role:"scheduler"
            ~for_:(Printf.sprintf "space on worker %d's queue" w)
            ~on:m.space
            (fun () ->
              ignore (drain_all m : bool);
              Spsc.Batch.add m.bufs.(w) word))

  let send m w = function
    | P.Sync_cond word -> push m w word
    | P.Frame { inner; t; j; len; iter } ->
        if len = 1 then push m w (do_header inner)
        else push m w (do_chunk_header inner);
        push m w t;
        push m w j;
        if len > 1 then push m w len;
        push m w iter

  let flush m =
    if not (drain_all m) then
      Stallcat.timed ?fr:m.fr ~domain:0 m.stat Stallcat.Queue_full (fun () ->
          Watchdog.wait ~wd:m.wd ~role:"scheduler" ~for_:"worker queue space (flush)"
            ~on:m.space (fun () -> drain_all m))

  let next_word m w =
    let r = m.readers.(w) in
    if r.rpos < r.rlen then begin
      let word = r.rbuf.(r.rpos) in
      r.rpos <- r.rpos + 1;
      word
    end
    else begin
      let q = m.queues.(w) in
      let n = Spsc.pop_chunk q r.rbuf ~pos:0 ~len:read_chunk in
      if n > 0 then begin
        r.rpos <- 1;
        r.rlen <- n;
        r.rbuf.(0)
      end
      else
        Stallcat.timed ?fr:m.fr ~domain:(m.base + w) m.stat Stallcat.Queue_empty
          (fun () -> Spsc.pop ~wd:m.wd ~role:(role w) q)
    end

  let recv m w =
    let word = next_word m w in
    if word land 3 <> 3 then P.Sync_cond word
    else begin
      let inner = word lsr 3 in
      let t = next_word m w in
      let j = next_word m w in
      let len = if word land 4 = 0 then 1 else next_word m w in
      let iter = next_word m w in
      P.Frame { inner; t; j; len; iter }
    end

  let frontier m w = Atomic.get m.at.(w)

  let publish m w iter =
    Atomic.set m.at.(w) iter;
    Wake.signal m.wake.(w)

  let await m ~self w iter =
    Stallcat.timed ?fr:m.fr ~domain:(m.base + self) m.stat Stallcat.Sync_cond (fun () ->
        Watchdog.wait ~wd:m.wd ~role:(role self)
          ~for_:(Printf.sprintf "iteration %d of worker %d" iter w)
          ~on:[ m.wake.(w) ]
          (fun () -> Atomic.get m.at.(w) >= iter))

  let exec m _ env s = Work.exec m.work env s
  let schedule _ _ = ()
  let shadow _ _ = ()
  let self_conds _ _ = ()

  let record m ~domain kind ~a ~b =
    match m.fr with Some f -> Obs.Flight.record f ~domain kind ~a ~b | None -> ()

  let fault m point ~domain ~site =
    match point with
    | P.Schedule ->
        Fault.inject m.fault Fault.Scheduler_die ~domain ~site;
        false
    | P.Feed ->
        (* A stalled queue: the producer wedges and the consumer starves —
           exactly what the watchdog must detect. *)
        if Array.length m.queues > 0 && Fault.fires m.fault Fault.Queue_stall ~domain ~site then
          Watchdog.park m.wd ~role:"scheduler";
        Fault.fires m.fault Fault.Poison_cond ~domain ~site
    | P.Execute ->
        Fault.inject m.fault Fault.Worker_raise ~domain ~site;
        false

  let run m fns = m.wall_ns <- Nrun.timed (fun () -> Pool.run ~wd:m.wd m.pool fns)
end

module Engine = P.Make (Machine)

let machine ~pool ?wd ?fault ?fr ~base ~queues (config : config) =
  let batch = max 1 config.batch in
  let qs = Array.init queues (fun _ -> Spsc.create ~dummy:0 ~capacity:queue_capacity) in
  {
    pool;
    wd = (match wd with Some w -> w | None -> Watchdog.unbounded ());
    fault;
    fr;
    stat = Stallcat.create ();
    work = config.work;
    base;
    queues = qs;
    bufs = Array.map (fun q -> Spsc.Batch.create ~size:batch q) qs;
    space = Array.to_list (Array.map Spsc.on_pop qs);
    readers =
      Array.init queues (fun _ ->
          Pad.copy_as_padded
            { rbuf = Array.make (read_chunk + Pad.pad_words) 0; rpos = 0; rlen = 0 });
    at = Pad.atomic_array config.workers (-1);
    wake = Array.init config.workers (fun _ -> Wake.create ());
    wall_ns = 0.;
  }

let result m ~technique ~domains ~workers p (c : P.counts) =
  Nrun.make ~technique ~domains ~workers ~wall_ns:m.wall_ns ~tasks:c.P.tasks
    ~invocations:(Ir.Program.invocations p) ~conds:c.P.conds ~checks:c.P.conds
    ~stalls:(Stallcat.to_list m.stat) ()

let run ~pool ?wd ?fault ?fr ?config ~plan p env =
  let config = match config with Some c -> c | None -> default_config ~workers:3 in
  let { policy; workers; grain; _ } = config in
  if workers > Pool.workers pool then invalid_arg "Ndomore.run: pool too small";
  let m = machine ~pool ?wd ?fault ?fr ~base:1 ~queues:workers config in
  let c = Engine.centralized m ~policy ~workers ~grain ~plan p env in
  result m ~technique:"native-DOMORE" ~domains:(workers + 1) ~workers p c

let run_duplicated ~pool ?wd ?fault ?fr ?config ~plan p env =
  let config = match config with Some c -> c | None -> default_config ~workers:4 in
  let { policy; workers; batch; _ } = config in
  if workers - 1 > Pool.workers pool then
    invalid_arg "Ndomore.run_duplicated: pool too small";
  let m = machine ~pool ?wd ?fault ?fr ~base:0 ~queues:0 config in
  let c = Engine.duplicated m ~policy ~workers ~batch:(max 1 batch) ~plan p env in
  result m ~technique:"native-DOMORE-dup" ~domains:workers ~workers p c
