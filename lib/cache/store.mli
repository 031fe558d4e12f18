(** On-disk artifact store: one file per fingerprint under a cache
    directory ([$XDG_CACHE_HOME/xinv] or [~/.cache/xinv] by default,
    overridable per store).

    Durability discipline, modelled on incremental-compiler caches:

    - {e atomic publication}: entries are written to a unique [.tmp] file
      and [rename(2)]d into place, so concurrent readers (other processes,
      other domains) only ever observe absent or complete entries — never a
      torn write;
    - {e corrupt-entry quarantine}: an entry that fails {!Artifact.decode}
      (truncated, bit-flipped, zero-length) is moved aside to
      [<entry>.quarantined] and reported as invalid — the caller falls back
      to fresh analysis; the store never raises on bad data.  An intact
      entry from another schema version is a plain miss: it stays in place
      (and under the size cap) until the next {!save} replaces it;
    - {e LRU size cap}: after each write, oldest-first eviction keeps the
      directory under [max_bytes];
    - {e best-effort IO}: filesystem errors (read-only dir, ENOSPC, races
      with concurrent evictions) make individual operations miss or no-op,
      never crash the run.

    Counters ([cache.evict], [cache.quarantine], [cache.store],
    [cache.io_error]) live in a {!Xinv_obs.Metrics} registry — the attached
    recorder's when one is given to {!open_} (so stats reports and
    OpenMetrics expositions pick them up for free), a private registry
    otherwise; see {!metrics}.  Usable-hit accounting ([cache.hit],
    [cache.miss]) lives in {!Analysis} and lands in the same registry. *)

type t

val default_dir : unit -> string

val open_ : ?obs:Xinv_obs.Recorder.t -> ?max_bytes:int -> dir:string -> unit -> t
(** Creates [dir] (and parents) when missing and sweeps stale [.tmp] files
    left by crashed writers.  Default [max_bytes]: 256 MiB. *)

val dir : t -> string

val load : t -> Fingerprint.t -> (Artifact.t, string) result
(** [Error reason] on anything but a complete, valid entry: ["absent"], or
    an {!Artifact.decode} reason (the entry is then quarantined, except on
    ["version"]).  Performs no hit/miss accounting — {!Analysis} decides
    usability. *)

val save : t -> Fingerprint.t -> Artifact.t -> unit
(** Atomic tmp+rename publication, then LRU enforcement.  Best-effort:
    errors are counted, not raised. *)

(** {2 Counters}

    Readers of the underlying registry counters.  When several stores share
    one recorder, the counters aggregate across them. *)

val metrics : t -> Xinv_obs.Metrics.t
(** The registry holding this store's counters: the recorder's when [obs]
    was passed to {!open_}, a store-private one otherwise. *)

val evictions : t -> int
(** The [cache.evict] counter. *)

val invalidated : t -> int
(** The [cache.quarantine] counter: entries quarantined after failing
    {!Artifact.decode} for any reason but ["version"]. *)

val stores : t -> int
(** The [cache.store] counter. *)

(** {2 Fault injection}

    A {!Xinv_native.Fault}-style injection point for crash-mid-write tests:
    the armed fault fires on the next {!save} (exactly once) and simulates a
    writer dying before publication.  Readers must be unaffected either
    way. *)

type fault =
  | Crash_before_rename  (** full tmp file written, never renamed *)
  | Torn_write  (** writer dies half-way through the tmp file *)

val inject : t -> fault option -> unit

(** {2 Directory-level maintenance (CLI [xinv cache ...])} *)

type entry_info = { e_fp : string; e_bytes : int; e_mtime : float }

val ls : dir:string -> entry_info list
(** Entries, oldest first. *)

type stats = {
  s_entries : int;
  s_bytes : int;
  s_quarantined : int;
  s_tmp : int;
}

val stats : dir:string -> stats

val clear : dir:string -> int
(** Removes entries, quarantined files and stale tmp files; returns the
    number of cache entries removed. *)
