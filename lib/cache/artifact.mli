(** Versioned binary serialization of one workload's cached analysis.

    The payload holds only what is worth keeping across invocations: the
    SPECCROSS dependence-distance profile (a full profiling run on the
    train input) and the autotuned execution policy.  The DOMORE MTCG
    partition is a static pass that costs less to recompute than to look
    up, so it is never stored.

    Wire format: magic string, schema version, payload length, MD5 payload
    checksum, payload.  {!decode} validates magic, version, length and
    checksum {e before} touching the payload bytes, so truncated, bit-flipped,
    wrong-version and zero-length files are rejected with a reason instead of
    crashing (or worse, deserializing garbage). *)

type t = {
  names : string list;
      (** {!Fingerprint.name_vector} of the workload that produced this
          bundle; a loaded artifact whose vector differs from the current
          workload's is an alias (same structure, different names) and must
          not be replayed *)
  profile : Xinv_speccross.Profiler.t option;
      (** SPECCROSS dependence-distance profile of this exact input *)
  policy : Policy.tuned option;
      (** autotuned execution policy ([xinv tune]): the fastest measured
          point of the policy space for this fingerprint on some machine,
          with the evidence (wall times, trials, seed) that chose it *)
}

val empty : names:string list -> t

val schema_version : int
(** Bump on any change to the payload type, the fingerprint traversal, or
    the meaning of either — old entries then miss on the version check and
    are re-analyzed (and overwritten by the next [`Rw] save), never
    misinterpreted. *)

val encode : t -> string

val decode : string -> (t, string) result
(** [Error reason] with [reason] one of ["truncated"], ["magic"],
    ["version"], ["checksum"], ["payload"].  Never raises. *)
