(** The DOMORE protocol (dissertation Chapter 3), written once for every
    machine that runs it.

    {!Make} holds the engines: the centralized scheduler (Algorithm 1) with
    its workers (Algorithm 2), and the §3.4 duplicated scheduler.  The
    engine decides what travels and when: the scheduling loop, chunk
    framing, where conditions go in each queue, the worker's receive loop,
    and the duplicated scheduler's rule of publishing before it blocks.  A
    {!MACHINE} supplies only how its threads move messages, wait, execute
    and charge time: the simulator ({!Domore}) and real domains
    ([Xinv_native.Ndomore]).

    Rules every machine must keep:
    - {!MACHINE.send} to one worker is FIFO and loses nothing.  Sent
      messages may be buffered, but {!MACHINE.flush} makes all of them
      receivable, and a sender blocked on a full queue keeps making its
      other buffered messages receivable: the worker it waits on may need
      them.
    - {!MACHINE.publish} is monotone per worker, and a thread that sees the
      new frontier ({!MACHINE.frontier}, {!MACHINE.await}) sees the
      worker's writes before it.
    - {!MACHINE.await} returns once the frontier reached the iteration; it
      may only return early by raising.
    - {!MACHINE.run} returns once every thread returned; thread [i] records
      on flight domain [i]. *)

(** A {!Xinv_runtime.Sync_cond.to_int} word, or a frame of [len]
    consecutive iterations [iter ..] of inner loop [inner] in outer
    iteration [t], from inner index [j]. *)
type msg =
  | Sync_cond of int
  | Frame of { inner : int; t : int; j : int; len : int; iter : int }

(** A statement on the scheduler ([Seq]), its copy on another duplicated
    scheduler ([Redundant]), or in an iteration body ([Body]). *)
type role = Seq | Redundant | Body

(** Fault points: the scheduler is about to schedule iteration [site]
    ([Schedule]); its conditions are about to reach owner [domain] ([Feed],
    where [true] poisons it with a condition nothing satisfies); worker
    [domain] is about to execute it ([Execute]). *)
type point = Schedule | Feed | Execute

module type MACHINE = sig
  type t

  val queue_length : t -> int -> int
  (** Messages sent to worker [w] and not yet received (may be stale). *)

  val send : t -> int -> msg -> unit
  val recv : t -> int -> msg
  val flush : t -> unit

  val frontier : t -> int -> int
  (** The last iteration worker [w] published, or [-1]. *)

  val publish : t -> int -> int -> unit
  val await : t -> self:int -> int -> int -> unit
  (** [await m ~self w iter]: [self] blocks until [frontier m w >= iter]. *)

  val exec : t -> role -> Xinv_ir.Env.t -> Xinv_ir.Stmt.t -> unit

  val schedule : t -> Xinv_ir.Slice.t -> unit
  val shadow : t -> Xinv_ir.Slice.t -> unit
  val self_conds : t -> int -> unit
  (** Charges: an iteration's scheduling step ([schedule]) and shadow
      update ([shadow]); a duplicated scheduler's [n] self-sent conditions
      ([self_conds]). *)

  val record : t -> domain:int -> Xinv_obs.Flight.kind -> a:int -> b:int -> unit
  val fault : t -> point -> domain:int -> site:int -> bool
  val run : t -> (unit -> unit) array -> unit
end

type counts = {
  tasks : int;
  conds : int;  (** conditions forwarded, or awaited by their owners *)
}

module Make (M : MACHINE) : sig
  val centralized :
    M.t ->
    policy:Policy.t ->
    workers:int ->
    grain:int ->
    plan:Xinv_ir.Mtcg.plan ->
    Xinv_ir.Program.t ->
    Xinv_ir.Env.t ->
    counts
  (** Thread 0 schedules; thread [w + 1] is worker [w], which receives on
      queue [w] and publishes frontier [w].  An iteration's conditions
      precede its frame on its owner's queue.  A frame is sealed when it
      holds [grain] iterations (so a full frame leaves in its last
      iteration's step), when the next iteration goes elsewhere or needs a
      condition, and when the invocation ends.  Records [Dispatch] per
      frame and [Sync_send] per condition (domain 0), [Sync_recv] on the
      worker, and a [Queue_sample] every 64th frame.
      @raise Invalid_argument if [workers] or [grain] is not positive or
      the plan re-partitioned body statements into the scheduler. *)

  val duplicated :
    M.t ->
    policy:Policy.t ->
    workers:int ->
    batch:int ->
    plan:Xinv_ir.Mtcg.plan ->
    Xinv_ir.Program.t ->
    Xinv_ir.Env.t ->
    counts
  (** Threads [0..workers-1] each schedule every iteration against a
      private shadow memory and execute the ones they own.  A thread
      publishes every [batch] owned iterations, at each invocation's end,
      and before it blocks on a peer, whose wait may lead back to it.
      Records [Sync_send]/[Sync_recv] per awaited condition and
      [Epoch_commit] per publish, on the thread's domain.
      @raise Invalid_argument as {!centralized}, for [batch]. *)
end
