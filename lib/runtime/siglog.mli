(** Signature log (dissertation Figure 4.8), shared by the simulated and
    the native SPECCROSS engine.

    Each worker stores the signature of every speculative task it ends,
    keyed by the task's {e global position}: its epoch's base plus its
    iteration ({!Xinv_speccross.Protocol.Epochs}), which increases strictly
    per worker.  The checker only reads the log.  A run of one worker
    stores nothing: its checker has no other worker to compare against.

    {b Window rule.}  A task of epoch [e] is compared against each other
    worker's signatures that lie {e after} that worker's frontier snapshot
    taken when the task began (anything at or below it had finished, so it
    is ordered before the task) and come from an epoch below [e] (tasks of
    one epoch are independent by construction).  TM-style checking pays
    for same-epoch signatures too, but never flags them.

    {b Concurrency.}  Each log has one writer at a time: its worker
    {!store}s; {!prune} and {!clear} run only while no worker stores and no
    reader reads (the native engine calls them from worker 0 at a rally,
    after the checker has drained).  A reader may run concurrently with a
    store, and it sees every entry whose store happened before it read the
    storing worker's frontier; so it must read the log only after reading
    the frontier that the worker published after the store.  Each store
    replaces an immutable record of the array and its bounds, so a reader
    never sees a torn array/length pair, and a slot is written only once. *)

type t

val create : workers:int -> t

val store : t -> worker:int -> pos:int -> epoch:int -> Signature.t -> unit
(** Append [worker]'s signature of the task at global position [pos] in
    [epoch].  [pos] must exceed every position the log still holds for
    [worker]. *)

val compare_window :
  t -> worker:int -> after:int -> epoch:int -> upto:int -> Signature.t -> int * bool
(** [(n, hit)]: [n] is how many of [worker]'s entries lie after position
    [after] in epochs below [upto]; [hit] is whether one of them from an
    epoch below [epoch] intersects the signature.  Plain checking passes
    [upto = epoch], TM-style checking [epoch + 1].  Costs
    O(log entries + n). *)

val prune : t -> upto:int -> unit
(** Drop every entry of an epoch below [upto] (after a checkpoint there). *)

val clear : t -> unit
(** Drop every entry (on recovery). *)
