(** Iteration scheduling policies for the DOMORE scheduler (dissertation
    §3.3.3): round-robin, and LOCALWRITE-style memory partitioning where an
    iteration goes to the owner of the memory it writes. *)

type t =
  | Round_robin
  | Mem_partition  (** owner of the first predicted write address *)
  | Least_loaded
      (** worker with the shortest dispatch queue (the "smarter scheduling"
          extension §3.3.3 anticipates); callers supply queue lengths *)

val name : t -> string

val pick :
  t ->
  loads:int array option ->
  mem:Xinv_ir.Memory.t ->
  threads:int ->
  iter:int ->
  write_addrs:int list ->
  int
(** Worker thread for a combined iteration number given the slice-predicted
    write addresses.  Memory partitioning owns contiguous blocks of the
    written array (as LOCALWRITE does), not of the flat address space. *)

val assign :
  t ->
  Xinv_ir.Slice.t ->
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
    duplicated: evaluate the slice's write addresses ([computeAddr]), pick
    the owner with {!pick} at index [slot], then record the slice's reads
    and writes in the shadow memory as iteration [iter] of that owner.
    [deps] is cleared and refilled with the synchronization conditions the
    owner must wait for.  Returns the owner.

    [slot] is [iter] except under chunked dispatch, where consecutive
    iterations of one chunk share the slot [iter / grain]. *)
