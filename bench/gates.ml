(* The timing gates CI runs on a 2-core runner (pin the process with
   [taskset -c 0,1]):

     gates [perf|obs|serve]     every gate by default, or just the named one

   perf  Envelope, not a scaling target: a 2-domain barrier run of SYMM
         must stay within 1.5x of sequential on >= 2 cores (12x on an
         oversubscribed single core).  With waits that park and wake on
         the release, ten runs pinned to 2 vCPUs measured 0.51-0.96x;
         waits that nap instead measured 1.57-2.62x and fail it, as do
         lock convoys, livelock and order-of-magnitude sync regressions.
         Each side is the minimum of 3 timed runs after a verified
         warm-up.
         A 2-domain SPECCROSS run of SYMM (one worker and the checker)
         must stay within 7x of sequential (12x on one core), about twice
         the worst of ten pinned runs: 2.16-3.50x with batched checker
         requests and streamed footprints, where per-request ring
         publishes and list-built footprints read 3.22-4.56x; pinned to
         one core, five batched runs read 4.1-5.4x.
         A 2-domain DOMORE-dup run of SYMM (both domains schedule every
         iteration and run the ones they own; SYMM touches every memory
         word, so it covers the shadow's full extent) must stay within
         3.2x of sequential (12x on one core), about twice the worst of
         ten pinned runs: 1.07-1.61x with a direct-mapped shadow and
         slice sites resolved once per run, where a hashed shadow and
         per-iteration name lookups read 1.79-4.59x; pinned to one core,
         five runs read 1.78-2.79x.  Each row also
         prints the native speedup, the simulator's speedup at the same
         threads and input, and their ratio, the cell's native
         efficiency.
   obs   The flight recorder's write path must cost at most 5% wall time:
         SYMM domore.d2 is timed off and on in 7 back-to-back pairs, order
         alternating so drift hits both sides, and the gate statistic is
         the median per-pair ratio.  A noisy box can skew one attempt, so
         up to 3 attempts are made and the first clean one passes.
   serve A socket reply must leave as soon as its job finishes: an
         in-process daemon on a temp socket answers 51 round trips of an
         unknown-workload run (queued, popped by the scheduler, rejected)
         on one connection, and the median round trip must stay within
         10 ms.  A fixed-cadence wait anywhere on the reply path (a 20 ms
         poll puts the median at ~20 ms) fails it.

   perf and obs use the calibrated spin work model (1 ns per simulated
   cycle) on the train input.  Exit status 1 on a failed gate. *)

module C = Xinv_core.Crossinv
module Wl = Xinv_workloads

let symm = Wl.Registry.find "SYMM"

let run ?(verify = false) ?(flight = false) technique threads =
  let o =
    C.run_request
    @@ C.Request.make
         ~backend:
           (`Native { C.native_defaults with C.work = Xinv_native.Work.Spin 1.0; flight })
         ~input:Wl.Workload.Train ~verify ~technique ~threads symm
  in
  if verify && not o.C.verified then begin
    Printf.eprintf "gates: SYMM under %s failed verification\n"
      (C.technique_name technique);
    exit 1
  end;
  if o.C.technique <> technique then begin
    Printf.eprintf "gates: SYMM under %s degraded to %s\n" (C.technique_name technique)
      (C.technique_name o.C.technique);
    exit 1
  end;
  C.cost_value o.C.cost

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt

let min_of_3 technique threads =
  ignore (run ~verify:true technique threads);
  List.fold_left Float.min infinity
    (List.init 3 (fun _ -> run technique threads))

let sim_speedup technique threads =
  let o =
    C.run_request @@ C.Request.make ~input:Wl.Workload.Train ~technique ~threads symm
  in
  Option.get o.C.speedup

let perf () =
  let cores = Domain.recommended_domain_count () in
  let seq = min_of_3 C.Sequential 1 in
  Printf.printf "perf: cores=%d SYMM.seq %.2f ms\n%!" cores (seq /. 1e6);
  let row technique ~envelope =
    let name = C.technique_name technique in
    let par = min_of_3 technique 2 in
    let ratio = par /. seq in
    let native = seq /. par and sim = sim_speedup technique 2 in
    Printf.printf
      "perf: SYMM.%s.d2 %.2f ms (%.2fx sequential); speedup native %.2fx, sim %.2fx, \
       efficiency %.2f\n%!"
      name (par /. 1e6) ratio native sim (native /. sim);
    if ratio > envelope then
      fail "perf FAIL: %s.d2 is %.2fx sequential (envelope %.1fx at %d cores)" name ratio
        envelope cores;
    Printf.printf "perf ok: %s %.2fx within %.1fx envelope\n%!" name ratio envelope
  in
  row C.Barrier ~envelope:(if cores >= 2 then 1.5 else 12.0);
  row C.Speccross ~envelope:(if cores >= 2 then 7.0 else 12.0);
  row C.Domore_dup ~envelope:(if cores >= 2 then 3.2 else 12.0)

let obs () =
  let reps = 7 and attempts = 3 in
  let time flight = run ~flight C.Domore 2 in
  ignore (time false);
  ignore (time true);
  let pair i =
    if i mod 2 = 0 then
      let off = time false in
      time true /. off
    else
      let on = time true in
      on /. time false
  in
  let rec go attempt =
    let ratios = Array.init reps pair in
    Array.sort compare ratios;
    let ratio = ratios.(reps / 2) in
    Printf.printf "obs[%d/%d]: SYMM.domore.d2 median of %d off/on pair ratios: %.3fx\n%!"
      attempt attempts reps ratio;
    if ratio <= 1.05 then
      Printf.printf "obs ok: recorder overhead %.1f%% within 5%% budget\n%!"
        (Float.max 0. ((ratio -. 1.) *. 100.))
    else if attempt < attempts then go (attempt + 1)
    else
      fail "obs FAIL: flight recorder costs %.1f%% wall time (budget 5%%) in %d attempts"
        ((ratio -. 1.) *. 100.) attempts
  in
  go 1

module Server = Xinv_serve.Server
module Proto = Xinv_serve.Protocol
module SClient = Xinv_serve.Client

let serve () =
  let trips = 51 and budget_ms = 10. in
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "xinv-gate-%d.sock" (Unix.getpid ()))
  in
  let srv = Server.create { Server.default_config with Server.domains = 1 } in
  let daemon = Thread.create (fun () -> Server.serve srv ~socket) () in
  let rec connect tries =
    match SClient.connect socket with
    | fd -> fd
    | exception Unix.Unix_error _ when tries > 0 ->
        Thread.delay 0.01;
        connect (tries - 1)
  in
  let fd = connect 500 in
  let req = Xinv_serve.Request.make (`Name "NO_SUCH_WORKLOAD") in
  let ms =
    Array.init trips (fun _ ->
        let t0 = Unix.gettimeofday () in
        (match SClient.request fd (Proto.Run req) with
        | Proto.Rejected (Proto.Unknown_workload _) -> ()
        | m ->
            fail "serve FAIL: unexpected reply %s"
              (Format.asprintf "%a" Proto.pp_server m));
        (Unix.gettimeofday () -. t0) *. 1e3)
  in
  Unix.close fd;
  ignore (SClient.call ~socket Proto.Shutdown);
  Thread.join daemon;
  Array.sort compare ms;
  let p50 = ms.(trips / 2) in
  Printf.printf "serve: %d socket round trips, median %.2f ms (min %.2f, max %.2f)\n%!"
    trips p50 ms.(0) ms.(trips - 1);
  if p50 > budget_ms then
    fail "serve FAIL: median round trip %.2f ms exceeds %.0f ms" p50 budget_ms;
  Printf.printf "serve ok: median round trip within %.0f ms\n%!" budget_ms

let () =
  match Array.to_list Sys.argv with
  | [ _ ] ->
      perf ();
      obs ();
      serve ()
  | [ _; "perf" ] -> perf ()
  | [ _; "obs" ] -> obs ()
  | [ _; "serve" ] -> serve ()
  | _ -> fail "usage: gates [perf|obs|serve]"
