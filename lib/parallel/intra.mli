(** Intra-invocation parallelization techniques (dissertation §2.2).

    Each technique defines how one inner-loop iteration executes on one
    worker thread; {!Barrier_exec} supplies the loop driving and the global
    synchronization between invocations. *)

type technique =
  | Doall  (** iterations provably independent; cyclic distribution *)
  | Doany  (** commutative conflicting updates protected by a lock array *)
  | Localwrite
      (** every thread visits every iteration; writes applied by the owner of
          the written partition; non-write statements computed redundantly *)
  | Spec_doall
      (** iterations speculated independent; per-iteration validation cost *)

val name : technique -> string

val of_name : string -> technique option

val visits_all_iterations : technique -> bool

type ctx = {
  machine : Xinv_sim.Machine.t;
  threads : int;
  tid : int;
  locks : Xinv_sim.Mutex.t array;  (** shared lock array for DOANY *)
  nlocks : int;
  total_words : int;  (** size of the flat address space *)
}

val make_ctx :
  machine:Xinv_sim.Machine.t ->
  threads:int ->
  tid:int ->
  locks:Xinv_sim.Mutex.t array ->
  total_words:int ->
  ctx

(** {2 Machine-independent rules}

    Shared by every engine that applies these techniques: the simulated
    barrier engine below, the SPECCROSS runtime's LOCALWRITE epochs, and
    the native barrier and SPECCROSS engines.  Only how an engine waits and
    charges time differs. *)

val owns : threads:int -> tid:int -> Xinv_ir.Env.t -> Xinv_ir.Footprint.touch -> bool
(** Whether worker [tid] owns some write of the statement
    ({!Xinv_ir.Footprint.owner}). *)

val executor : threads:int -> Xinv_ir.Env.t -> Xinv_ir.Footprint.touch array -> int
(** The worker that applies a LOCALWRITE iteration's non-writing statements
    (which every worker visits): the lowest owner of any write in the
    body, or 0 when the body writes nothing. *)

val stripe :
  nlocks:int -> total_words:int -> Xinv_ir.Env.t -> Xinv_ir.Footprint.touch -> int option
(** The DOANY lock a statement runs under: for a commuting statement that
    writes, the stripe of its first write's flat address, the address
    space split into [nlocks] equal ranges; [None] for any other
    statement, which runs unlocked. *)

val exec_iteration :
  technique -> ctx -> Xinv_ir.Env.t -> Xinv_ir.Footprint.touch array -> unit
(** Execute (or, for LOCALWRITE non-owners, visit) the iteration whose
    induction values are in the environment.  The body is resolved once
    per run ({!Xinv_ir.Footprint.bodies}). *)
