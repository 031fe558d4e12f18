(* Wall-clock accounting of *why* native domains block.

   Each engine owns one accumulator and wraps only its blocking slow paths
   (the fast path pays nothing); every blocked episode adds its measured
   nanoseconds to one cause bucket.  The buckets are padded atomics because
   several domains report concurrently.

   The causes are the one stall vocabulary of both backends,
   {!Xinv_obs.Cause}. *)

type cause = Xinv_obs.Cause.t =
  | Queue_empty
  | Queue_full
  | Sync_cond
  | Barrier_wait
  | Checker_lag
  | Throttle
  | Rally

let all = Xinv_obs.Cause.all

let name = Xinv_obs.Cause.name

let index = Xinv_obs.Cause.index

type t = int Atomic.t array (* accumulated ns per cause, padded *)

let create () = Pad.atomic_array Xinv_obs.Cause.count 0

let add_ns t cause ns =
  if ns > 0 then ignore (Atomic.fetch_and_add t.(index cause) ns)

let now_ns () = int_of_float (1e9 *. Unix.gettimeofday ())

(* Times [f] and charges the elapsed wall time to [cause].  Use only around
   code that is (or is about to be) blocked: the two clock reads cost ~50ns,
   noise against a backoff episode but not against a ring operation.  With a
   flight recorder attached the episode also lands in [domain]'s ring as a
   Stall_begin/Stall_end pair (the end entry carries the duration). *)
let timed ?fr ?(domain = 0) t cause f =
  (match fr with
  | Some fr ->
      Xinv_obs.Flight.record fr ~domain Xinv_obs.Flight.Stall_begin
        ~a:(index cause) ~b:0
  | None -> ());
  let t0 = now_ns () in
  Fun.protect
    ~finally:(fun () ->
      let d = now_ns () - t0 in
      add_ns t cause d;
      match fr with
      | Some fr ->
          Xinv_obs.Flight.record fr ~domain Xinv_obs.Flight.Stall_end
            ~a:(index cause) ~b:d
      | None -> ())
    f

let ns t cause = Atomic.get t.(index cause)

let to_list t =
  List.filter_map
    (fun c ->
      let v = Atomic.get t.(index c) in
      if v > 0 then Some (name c, float_of_int v) else None)
    all
