(** Iteration scheduling policies for the DOMORE scheduler (dissertation
    §3.3.3): round-robin, and LOCALWRITE-style memory partitioning where an
    iteration goes to the owner of the memory it writes. *)

type t =
  | Round_robin
  | Mem_partition
      (** owner of the first predicted write, as LOCALWRITE owns it
          ({!Xinv_ir.Footprint.owner}) *)
  | Least_loaded
      (** worker with the shortest dispatch queue (the "smarter scheduling"
          extension §3.3.3 anticipates); callers supply queue lengths *)

val name : t -> string

val assign :
  t ->
  reads:Xinv_ir.Footprint.site array ->
  writes:Xinv_ir.Footprint.site array ->
  Xinv_runtime.Shadow.t ->
  Xinv_runtime.Shadow.Deps.t ->
  loads:int array option ->
  threads:int ->
  iter:int ->
  slot:int ->
  Xinv_ir.Env.t ->
  int
(** DOMORE's per-iteration scheduling step (dissertation Algorithm 1),
    shared by the simulated and native schedulers, centralized and
    duplicated, and by SPECCROSS's DOMORE epochs.  [reads] and [writes]
    are the iteration's slice resolved once per run
    ({!Xinv_ir.Footprint.sites} of {!Xinv_ir.Slice.t}'s [reads] and
    [writes]); the shadow covers the run's memory and [threads] workers.
    Picks the owner by the policy at index [slot] (memory partitioning
    takes the first write site's owner; an iteration without writes
    falls back to round-robin), then evaluates the sites
    ([computeAddr]) and records the reads, then the writes, in the shadow
    as iteration [iter] of that owner.
    [deps] is cleared and refilled with the synchronization conditions the
    owner must wait for.  Returns the owner.

    [slot] is [iter] except under chunked dispatch, where consecutive
    iterations of one chunk share the slot [iter / grain]. *)
