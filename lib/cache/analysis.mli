(** Cached front door to the analysis pipeline's one expensive step.

    {!profile} is a drop-in replacement for
    [Xinv_speccross.Profiler.profile]: same result — proven bit-identical
    by the differential suite in [test/test_cache.ml] — but on a cache hit
    the full sequential profiling run is skipped and the profile is read
    from the stored artifact.  {!cached_policy}/{!store_policy} keep the
    autotuned execution policy next to it.  The DOMORE MTCG partition is
    not cached: deriving it fresh takes microseconds, less than keying the
    lookup.

    Hit discipline: a stored artifact is replayed only when the fingerprint
    matches, the name vector matches (alias defense) and the artifact holds
    the component being asked for; anything else — including a corrupt or
    wrong-version entry — degrades to fresh analysis.  In [`Rw] mode fresh
    results are merged into the entry and published atomically. *)

type mode = [ `Ro | `Rw ]

type t

val make :
  ?obs:Xinv_obs.Recorder.t -> ?max_bytes:int -> ?dir:string -> mode:mode -> unit -> t
(** [dir] defaults to {!Store.default_dir}. *)

val store : t -> Store.t

val mode : t -> mode

val hits : t -> int
(** Usable profile hits served. *)

val misses : t -> int

val plan : t -> Xinv_ir.Program.t -> Xinv_ir.Env.t -> Xinv_ir.Mtcg.verdict
(** [Mtcg.generate], uncached: the handle is ignored and nothing is
    counted.  Its only caller is the [cache.plan_replay] span of
    [bench/xbench]'s traced replay; lib, bin and test code call
    [Mtcg.generate] directly.  A benchmark change deletes it. *)

val cached_policy :
  t -> Xinv_ir.Program.t -> Xinv_ir.Env.t -> Policy.tuned option
(** The tuned execution policy stored for this workload's fingerprint, if
    any.  Same hit discipline as {!profile} (fingerprint + name
    vector must match, decode must succeed) but accounted under the
    [policy.cache.hit]/[policy.cache.miss] counters instead of
    [cache.hit]/[cache.miss]: a missing policy must not make a run that
    replayed its profile look like a partial cache hit. *)

val store_policy :
  t -> Xinv_ir.Program.t -> Xinv_ir.Env.t -> Policy.tuned -> unit
(** Merge the tuned policy into the fingerprint's artifact and publish
    atomically ([`Rw] only; a no-op in [`Ro]). *)

val profile :
  t -> Xinv_ir.Program.t -> Xinv_ir.Env.t -> Xinv_speccross.Profiler.t
(** Cached [Profiler.profile].  On a miss the underlying profiling run
    mutates [env] (it executes the program) exactly as the uncached path
    does; on a hit [env] is left untouched — observably equivalent because
    callers profile on a scratch training environment. *)
