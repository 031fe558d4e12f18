(** Native DOMORE (dissertation Chapter 3) on real domains.

    Both engines are {!Xinv_domore.Protocol.Make} on real domains, so they
    schedule, frame and synchronize exactly as the simulated ones
    ({!Xinv_domore.Domore}).  One scheduler domain executes the sequential
    regions, evaluates the address slice per iteration, detects dynamic
    dependences in shadow memory ({!Xinv_runtime.Shadow}) and streams
    synchronization conditions plus Do-task frames to worker domains over
    lock-free int queues ({!Spsc}).  Workers publish completed iteration
    numbers in monotonic [Atomic] cells; a [Wait] condition waits until the
    named worker's cell reaches the named iteration, parking after a short
    spin and woken by that worker's next completion store.

    Wire format (one word per message on the queue): words with low bits
    00/01/10 are {!Xinv_runtime.Sync_cond.to_int} encodings; low bits 11 (the encoding's
    reserved tag) frame a Do-task header carrying the inner index.  Bit 2
    of the header selects the frame shape: clear means a single iteration
    ([hdr; t; j; iter]), set means a chunk of [len] consecutive iterations
    ([hdr; t; j0; len; iter0]) produced when [grain > 1].  A frame is sent
    as soon as it holds [grain] iterations, so at grain 1 each iteration
    leaves in its own scheduling step; a shorter frame leaves when the next
    iteration goes to another worker or needs a condition, or the
    invocation ends.  Words travel through per-worker write-combining
    buffers ({!Spsc.Batch}): one atomic publish per [batch] words instead of
    one per word, with the flushed stream identical to the unbatched one. *)

type config = {
  policy : Xinv_domore.Policy.t;
  workers : int;  (** worker domains, excluding the scheduler *)
  work : Work.t;
  grain : int;
      (** max consecutive iterations dispatched as one chunk frame; 1
          (the default) reproduces the per-iteration protocol exactly *)
  batch : int;
      (** write-combining buffer size in words (scheduler side); in
          {!run_duplicated}, owned iterations per completion-cell publish *)
}

val default_config : workers:int -> config

val run :
  pool:Pool.t ->
  ?wd:Watchdog.t ->
  ?fault:Fault.t ->
  ?fr:Xinv_obs.Flight.t ->
  ?config:config ->
  plan:Xinv_ir.Mtcg.plan ->
  Xinv_ir.Program.t ->
  Xinv_ir.Env.t ->
  Nrun.t
(** The scheduler runs on the calling domain, workers on pool domains (the
    pool needs [workers] of them).  Mutates the environment's memory to the
    final state; with deterministic scheduling policies the dispatch — and
    therefore the sync-condition count — matches the simulator exactly.

    All queue operations and cell waits are bounded by [wd] (an internal
    unbounded watchdog provides cancellation when omitted).  Scheduler
    and workers run as one {!Pool.run} cohort: a failing domain cancels
    [wd], which wakes every queue and cell waiter, and the root cause is
    re-raised after the run unwinds — also when the caller cancelled [wd]
    itself.  [fault] sites are combined
    iteration numbers: [Scheduler_die] raises in the scheduler,
    [Worker_raise] in the dispatched worker, [Queue_stall] wedges the
    scheduler before feeding the matched worker, and [Poison_cond] sends
    that worker an unsatisfiable [Wait].

    With a flight recorder [fr] attached (needs [workers + 1] rings:
    scheduler on ring 0, worker [w] on ring [w+1]) the run records
    dispatches, sync-cond sends/recvs, queue samples and stall episodes
    with no effect on the executed schedule. *)

val run_duplicated :
  pool:Pool.t ->
  ?wd:Watchdog.t ->
  ?fault:Fault.t ->
  ?fr:Xinv_obs.Flight.t ->
  ?config:config ->
  plan:Xinv_ir.Mtcg.plan ->
  Xinv_ir.Program.t ->
  Xinv_ir.Env.t ->
  Nrun.t
(** §3.4 duplicated-scheduler variant: every one of [workers] domains runs
    the full scheduling computation against a private shadow memory and
    executes only the iterations it owns — no scheduler domain, no queues,
    synchronization purely through the completion cells.  [conds] and
    [checks] count the conditions the owners awaited.  [Worker_raise] and
    [Poison_cond] fire at the owner of the matched iteration.  Flight ring
    mapping: worker [tid] on ring [tid]. *)
