(** Bounded waits and cohort cancellation for the native backend.

    The lock-free primitives ({!Nbar}, {!Spsc}, the {!Pool} join) wait
    until a peer makes progress; if that peer died the wait never ends.
    A watchdog turns every such wait into a bounded, cancellable one:

    - a {e per-run deadline} ([deadline_ms], absolute) and a {e per-wait
      timeout} ([wait_timeout_ms], relative to each wait's start) bound
      the wall-clock of any single wait — exceeding either raises
      {!Stalled} with the role, the awaited resource and the time spent;
    - a {e cancellation token}: the first failing domain publishes its
      exception via {!cancel} ({!Pool.run} does this for its cohort);
      every other domain's waits then raise {!Cancelled} so the whole
      cohort unwinds promptly instead of waiting on state the dead domain
      will never update.  Cancellation is the only way a cohort unwinds.

    One watchdog is shared by every domain of one run (all operations are
    thread-safe); an {!unbounded} watchdog still provides cancellation. *)

exception
  Stalled of { role : string; waiting_for : string; waited_ns : float }
(** A bounded wait exceeded its per-wait timeout or the run deadline.
    [role] identifies the waiting domain (e.g. ["worker 2"]), and
    [waiting_for] the awaited resource (e.g. ["barrier"]). *)

exception Cancelled of string
(** A wait observed the cancellation token; payload is the waiter's role.
    The originating failure is available from {!root_cause}. *)

type t

val unbounded : unit -> t
(** No deadline, no per-wait timeout; cancellation only. *)

val create : ?deadline_ms:float -> ?wait_timeout_ms:float -> unit -> t
(** [deadline_ms] starts counting now; [wait_timeout_ms] applies to each
    individual wait.  Omitted bounds are infinite. *)

val wait :
  ?cancellable:bool ->
  ?wd:t ->
  role:string ->
  for_:string ->
  on:Wake.t list ->
  (unit -> bool) ->
  unit
(** [wait ?wd ~role ~for_ ~on pred] returns once [pred ()] holds.  It
    is {!Wake.await}: a short spin, then the waiter parks on the wake
    points [on] (and on [wd]'s cancellation), which must be signalled by
    every write that can turn [pred] true.  Parking loses no wake-up,
    releases the domain's runtime lock, and still honours [wd]'s bounds:
    a parked waiter wakes by itself when its time runs out.  Without
    [wd] the wait is unbounded and not cancellable.
    @raise Cancelled when [wd]'s token is set (unless [cancellable:false],
      used by the pool join which must keep waiting for unwinding workers).
    @raise Stalled when a time bound of [wd] is exceeded. *)

val park : t -> role:string -> 'a
(** Block until cancelled or timed out — never returns normally.  Used by
    fault injection to simulate a wedged domain.
    @raise Cancelled when the token is set.
    @raise Stalled when a time bound is exceeded. *)

val cancel : t -> exn -> bool
(** Set the cancellation token.  True iff this call was the first: the
    winner's exception becomes the run's {!root_cause}; later calls are
    secondary failures and are dropped. *)

val on_cancel : t -> Wake.t
(** Signalled by the winning {!cancel}: lets an unbounded wait that is
    not a {!wait} (the SPECCROSS checker idling between signatures) park
    and still notice cancellation. *)

val cancelled : t -> bool
val root_cause : t -> exn option

val stalls : t -> int
(** Number of {!Stalled} raises on this watchdog (feeds the
    [watchdog.stall] counter). *)

val grace : t -> t
(** A fresh watchdog whose bounds are one wait window starting {e now}
    (the original per-wait timeout, or 5 s when it was unbounded), with a
    clean cancellation token.  The {!Pool} recovery join uses it after
    cohort cancellation: the original watchdog's absolute deadline may
    already be in the past — often exactly why the join stalled — which
    would make a "second chance" wait on the same watchdog zero-width and
    condemn a shared pool whose workers were unwinding fine. *)
