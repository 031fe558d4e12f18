(** The event record of both backends, and the native flight recorder.

    {!entry} is the one run-event record: the native engines write it into
    the wall-clock rings below, the simulator's engines write it with
    virtual-cycle stamps into {!Recorder}'s growable log, and {!Report} and
    {!Perfetto} read it the same way from either.

    One fixed-capacity ring buffer per domain, single-writer, lock-free:
    each domain records only into its own ring, so the write path is four
    plain [int array] stores plus a timestamp — no allocation, no atomics,
    no locks.  When a ring is full the oldest entry is overwritten
    (drop-oldest); a per-ring monotonic write count makes the number of
    dropped entries recoverable after the fact.

    Readers are expected to run either after the recorded run has quiesced
    (postmortems, critical-path analysis — fully consistent) or live against
    a ring that is still being written ([xinv top] — individual slots may be
    torn mid-write; [read] bounds-checks the decoded kind and skips
    undecodable slots, and a torn slot can at worst surface a stale or
    blended payload for one sample frame). *)

type kind =
  | Dispatch  (** a = first iteration / block / site, b = target domain *)
  | Sync_send  (** a = dependence iteration, b = target domain *)
  | Sync_recv  (** a = dependence iteration, b = source domain *)
  | Barrier_arrive  (** a = episode *)
  | Barrier_release  (** a = episode *)
  | Epoch_commit  (** a = epoch *)
  | Misspec  (** a = epoch, b = worker *)
  | Stall_begin  (** a = {!Cause.index} *)
  | Stall_end  (** a = {!Cause.index}, b = duration in clock ticks *)
  | Queue_sample  (** a = queue index, b = queue length *)
  | Checkpoint  (** a = epoch the checkpoint resumes from *)
  | Sig_check  (** a = epoch, b = signatures compared *)
  | Recovery  (** a = epochs redone, b = duration in clock ticks *)
  | Mark  (** free-form breadcrumb *)

val kind_name : kind -> string

type clock =
  | Cycles  (** simulated cycles *)
  | Ns  (** wall-clock nanoseconds *)

val clock_name : clock -> string

type entry = {
  f_at : int;  (** clock ticks since the run (or the recorder) started *)
  f_domain : int;
  f_kind : kind;
  f_a : int;
  f_b : int;
}

type t

val default_capacity : int
(** 8192 entries per ring. *)

val create : ?capacity:int -> domains:int -> unit -> t
(** One ring of [capacity] entries (default 8192) per domain.
    Raises [Invalid_argument] if [capacity < 1] or [domains < 1]. *)

val record : t -> domain:int -> kind -> a:int -> b:int -> unit
(** Append to [domain]'s ring, overwriting the oldest entry when full.
    Must only be called from that ring's single writer. *)

val mark : t -> domain:int -> int -> unit
(** [mark t ~domain v] records a {!Mark} breadcrumb carrying [v]. *)

val domains : t -> int

val tracks : t -> string array
(** One ["domain N"] name per ring. *)

val capacity : t -> int

val length : t -> domain:int -> int
(** Entries currently retained in [domain]'s ring. *)

val recorded : t -> domain:int -> int
(** Entries ever written to [domain]'s ring (monotonic). *)

val drops : t -> domain:int -> int
(** [recorded - length]: entries lost to drop-oldest overwrite. *)

val total_drops : t -> int

val total_length : t -> int

val read : ?since:int -> t -> domain:int -> entry list
(** Retained entries of one ring, oldest first, filtered to
    [f_at >= since] (ns).  Safe to call against a live ring. *)

val entries : t -> entry list
(** All rings merged, sorted by timestamp. *)

val elapsed_ns : t -> int
(** Largest timestamp recorded so far (0 when empty). *)
