(* Tests for the discrete-event simulator: engine semantics, synchronization
   primitives, accounting, determinism. *)

module Sim = Xinv_sim
module Engine = Xinv_sim.Engine
module Proc = Xinv_sim.Proc

let test_advance_and_now () =
  let eng = Engine.create () in
  let seen = ref [] in
  ignore
    (Engine.spawn eng ~name:"a" (fun () ->
         Proc.work 10.;
         seen := Proc.now () :: !seen;
         Proc.work 5.;
         seen := Proc.now () :: !seen));
  Engine.run eng;
  Alcotest.(check (list (float 1e-9))) "times" [ 15.; 10. ] !seen;
  Alcotest.(check (float 1e-9)) "makespan" 15. (Engine.now eng);
  Alcotest.(check (float 1e-9)) "charged work" 15.
    (Engine.charged eng 0 Sim.Category.Work)

let test_parallel_threads_independent_clocks () =
  let eng = Engine.create () in
  ignore (Engine.spawn eng (fun () -> Proc.work 100.));
  ignore (Engine.spawn eng (fun () -> Proc.work 30.));
  Engine.run eng;
  Alcotest.(check (float 1e-9)) "makespan is max" 100. (Engine.now eng);
  Alcotest.(check (float 1e-9)) "total work sums" 130.
    (Engine.total eng Sim.Category.Work)

let test_equal_time_scheduling_order () =
  (* C is spawned first but reaches t=10 through an event scheduled at t=5,
     after A's and B's t=10 events were scheduled at t=0: equal-time events
     resume in scheduling order, not thread order. *)
  let eng = Engine.create () in
  let order = ref [] in
  let thread name steps =
    ignore
      (Engine.spawn eng ~name (fun () ->
           List.iter Proc.work steps;
           order := (name, Proc.now ()) :: !order))
  in
  thread "C" [ 5.; 5. ];
  thread "A" [ 10. ];
  thread "B" [ 10. ];
  Engine.run eng;
  Alcotest.(check (list (pair string (float 0.))))
    "A, B, C at t=10"
    [ ("A", 10.); ("B", 10.); ("C", 10.) ]
    (List.rev !order)

(* Up to 40 threads keep up to 40 events pending, so the engine's queue
   grows past its initial 16 slots. *)
let prop_resume_times_monotone =
  QCheck.Test.make ~name:"resume times monotone; makespan max"
    ~count:200
    QCheck.(list_of_size Gen.(int_range 1 40) (list_of_size Gen.(int_range 0 12) (int_range 0 50)))
    (fun threads ->
      let eng = Engine.create () in
      let resumed = ref [] in
      List.iter
        (fun steps ->
          ignore
            (Engine.spawn eng (fun () ->
                 List.iter
                   (fun c ->
                     Proc.work (float_of_int c);
                     resumed := Proc.now () :: !resumed)
                   steps)))
        threads;
      Engine.run eng;
      let rec nondecreasing = function
        | a :: (b :: _ as rest) -> a <= b && nondecreasing rest
        | _ -> true
      in
      let longest =
        List.fold_left (fun m steps -> Stdlib.max m (List.fold_left ( + ) 0 steps)) 0 threads
      in
      nondecreasing (List.rev !resumed) && Engine.now eng = float_of_int longest)

let test_deadlock_detection () =
  let eng = Engine.create () in
  ignore (Engine.spawn eng ~name:"stuck" (fun () -> Proc.suspend Sim.Category.Sync_wait (fun _ -> ())));
  Alcotest.check_raises "deadlock raised"
    (Engine.Deadlock "at t=0: stuck(#0,Suspended)") (fun () -> Engine.run eng)

let test_deadlock_two_threads () =
  (* Two threads each waiting on a cell only the other would set: the
     diagnosis must carry the simulated clock and each thread's state. *)
  let eng = Engine.create () in
  let a = Sim.Mono_cell.create ~init:0 () and b = Sim.Mono_cell.create ~init:0 () in
  ignore
    (Engine.spawn eng ~name:"left" (fun () ->
         Proc.work 7.;
         Sim.Mono_cell.wait_ge a 1;
         Sim.Mono_cell.set b 1));
  ignore
    (Engine.spawn eng ~name:"right" (fun () ->
         Proc.work 11.;
         Sim.Mono_cell.wait_ge b 1;
         Sim.Mono_cell.set a 1));
  Alcotest.check_raises "both stuck threads reported with clock and state"
    (Engine.Deadlock "at t=11: left(#0,Suspended), right(#1,Suspended)") (fun () ->
      Engine.run eng)

let test_determinism () =
  let run_once () =
    let eng = Engine.create () in
    let log = ref [] in
    for i = 0 to 4 do
      ignore
        (Engine.spawn eng (fun () ->
             Proc.work (float_of_int (10 - i));
             log := (i, Proc.now ()) :: !log))
    done;
    Engine.run eng;
    !log
  in
  Alcotest.(check bool) "identical runs" true (run_once () = run_once ())

let test_barrier () =
  let eng = Engine.create () in
  let bar = Sim.Barrier.create ~parties:3 in
  let release_times = ref [] in
  for i = 0 to 2 do
    ignore
      (Engine.spawn eng (fun () ->
           Proc.work (float_of_int ((i + 1) * 10));
           Sim.Barrier.wait bar;
           release_times := Proc.now () :: !release_times))
  done;
  Engine.run eng;
  Alcotest.(check int) "episodes" 1 (Sim.Barrier.waits bar);
  List.iter
    (fun t -> Alcotest.(check (float 1e-9)) "all released at last arrival" 30. t)
    !release_times

let test_barrier_wait_charged () =
  let eng = Engine.create () in
  let bar = Sim.Barrier.create ~parties:2 in
  ignore (Engine.spawn eng (fun () -> Sim.Barrier.wait bar));
  ignore (Engine.spawn eng (fun () -> Proc.work 50.; Sim.Barrier.wait bar));
  Engine.run eng;
  Alcotest.(check (float 1e-9)) "early thread charged barrier wait" 50.
    (Engine.charged eng 0 Sim.Category.Barrier_wait)

let test_barrier_cyclic () =
  let eng = Engine.create () in
  let bar = Sim.Barrier.create ~parties:2 in
  let hits = ref 0 in
  for _ = 1 to 2 do
    ignore
      (Engine.spawn eng (fun () ->
           for _ = 1 to 3 do
             Proc.work 1.;
             Sim.Barrier.wait bar;
             incr hits
           done))
  done;
  Engine.run eng;
  Alcotest.(check int) "episodes" 3 (Sim.Barrier.waits bar);
  Alcotest.(check int) "hits" 6 !hits

let test_channel_fifo () =
  let eng = Engine.create () in
  let q = Sim.Channel.create () in
  let got = ref [] in
  ignore
    (Engine.spawn eng (fun () ->
         List.iter (Sim.Channel.produce q) [ 1; 2; 3 ]));
  ignore
    (Engine.spawn eng (fun () ->
         for _ = 1 to 3 do
           got := Sim.Channel.consume q :: !got
         done));
  Engine.run eng;
  Alcotest.(check (list int)) "fifo order" [ 1; 2; 3 ] (List.rev !got)

let test_channel_blocks_until_produced () =
  let eng = Engine.create () in
  let q = Sim.Channel.create () in
  let consumed_at = ref 0. in
  ignore
    (Engine.spawn eng (fun () ->
         ignore (Sim.Channel.consume q);
         consumed_at := Proc.now ()));
  ignore (Engine.spawn eng (fun () -> Proc.work 42.; Sim.Channel.produce q ()));
  Engine.run eng;
  Alcotest.(check (float 1e-9)) "consumer waited" 42. !consumed_at;
  Alcotest.(check int) "produced count" 1 (Sim.Channel.produced q);
  Alcotest.(check (float 0.)) "blocked consumer charged Queue once" 42.
    (Engine.charged eng 0 Sim.Category.Queue);
  Alcotest.(check (float 0.)) "only the consumer waited" 42.
    (Engine.total eng Sim.Category.Queue);
  Alcotest.(check (float 0.)) "no other category charged" 42. (Engine.busy eng 0)

let test_channel_costs () =
  let eng = Engine.create () in
  let q = Sim.Channel.create ~produce_cost:3. ~consume_cost:2. () in
  ignore
    (Engine.spawn eng (fun () ->
         Sim.Channel.produce q 1;
         ignore (Sim.Channel.consume q)));
  Engine.run eng;
  Alcotest.(check (float 1e-9)) "queue cycles charged" 5.
    (Engine.charged eng 0 Sim.Category.Queue)

let test_try_consume () =
  let eng = Engine.create () in
  ignore
    (Engine.spawn eng (fun () ->
         let q = Sim.Channel.create () in
         Alcotest.(check (option int)) "empty" None (Sim.Channel.try_consume q);
         Sim.Channel.produce q 9;
         Alcotest.(check (option int)) "nonempty" (Some 9) (Sim.Channel.try_consume q)));
  Engine.run eng

let test_mutex_exclusion () =
  let eng = Engine.create () in
  let m = Sim.Mutex.create () in
  let inside = ref 0 and max_inside = ref 0 in
  for _ = 1 to 4 do
    ignore
      (Engine.spawn eng (fun () ->
           Sim.Mutex.with_lock m (fun () ->
               incr inside;
               max_inside := Stdlib.max !max_inside !inside;
               Proc.work 10.;
               decr inside)))
  done;
  Engine.run eng;
  Alcotest.(check int) "mutual exclusion" 1 !max_inside;
  Alcotest.(check (float 1e-9)) "serialized" 40. (Engine.now eng);
  Alcotest.(check int) "contended count" 3 (Sim.Mutex.contended m);
  (* FIFO hand-off: the waiters got the lock at 10, 20 and 30. *)
  Alcotest.(check (list (float 0.))) "waiters charged Sync_wait once each"
    [ 0.; 10.; 20.; 30. ]
    (List.init 4 (fun id -> Engine.charged eng id Sim.Category.Sync_wait));
  Alcotest.(check (float 0.)) "Sync_wait total" 60. (Engine.total eng Sim.Category.Sync_wait)

let test_mono_cell () =
  let eng = Engine.create () in
  let c = Sim.Mono_cell.create ~init:0 () in
  let woke_at = ref 0. in
  ignore
    (Engine.spawn eng (fun () ->
         Sim.Mono_cell.wait_ge c 5;
         woke_at := Proc.now ()));
  ignore
    (Engine.spawn eng (fun () ->
         Proc.work 10.;
         Sim.Mono_cell.set c 3;
         Proc.work 10.;
         Sim.Mono_cell.set c 7));
  ignore (Engine.spawn eng (fun () -> Sim.Mono_cell.wait_ge ~cat:Sim.Category.Checker c 3));
  Engine.run eng;
  Alcotest.(check (float 1e-9)) "woken when threshold reached" 20. !woke_at;
  Alcotest.(check int) "value" 7 (Sim.Mono_cell.get c);
  Alcotest.(check (float 0.)) "default wait charged Sync_wait once" 20.
    (Engine.charged eng 0 Sim.Category.Sync_wait);
  Alcotest.(check (float 0.)) "cat wait charged to its cat once" 10.
    (Engine.charged eng 2 Sim.Category.Checker);
  Alcotest.(check (list (float 0.))) "nothing else charged" [ 20.; 20.; 10. ]
    (List.init 3 (Engine.busy eng))

let test_mono_cell_raise_to () =
  let c = Sim.Mono_cell.create ~init:5 () in
  Sim.Mono_cell.raise_to c 3;
  Alcotest.(check int) "no-op below" 5 (Sim.Mono_cell.get c);
  Sim.Mono_cell.raise_to c 9;
  Alcotest.(check int) "raised" 9 (Sim.Mono_cell.get c)

let test_trace_capture () =
  let eng = Engine.create ~trace:true () in
  ignore (Engine.spawn eng (fun () -> Proc.work ~label:"body" 10.));
  Engine.run eng;
  match Engine.segments eng with
  | [ seg ] ->
      Alcotest.(check string) "label" "body" seg.Sim.Trace.label;
      Alcotest.(check (float 1e-9)) "end" 10. seg.Sim.Trace.t_end;
      let rendered = Sim.Trace.render ~width:4 [ seg ] in
      Alcotest.(check bool) "renders" true (String.length rendered > 0)
  | segs -> Alcotest.failf "expected 1 segment, got %d" (List.length segs)

let test_machine_work_factor () =
  let m = Sim.Machine.default in
  Alcotest.(check (float 1e-9)) "1 thread = no contention" 1.
    (Sim.Machine.work_factor m ~threads:1);
  Alcotest.(check bool) "more threads slower" true
    (Sim.Machine.work_factor m ~threads:24 > Sim.Machine.work_factor m ~threads:2)

let test_mutex_exception_safety () =
  let eng = Engine.create () in
  let m = Sim.Mutex.create () in
  let second_ran = ref false in
  ignore
    (Engine.spawn eng (fun () ->
         (try Sim.Mutex.with_lock m (fun () -> raise Exit) with Exit -> ());
         (* The lock must have been released by the failing critical
            section. *)
         Sim.Mutex.with_lock m (fun () -> second_ran := true)));
  Engine.run eng;
  Alcotest.(check bool) "lock released after exception" true !second_ran

let test_category_indexing () =
  Alcotest.(check int) "dense index count" Sim.Category.count
    (List.length Sim.Category.all);
  let idx = List.map Sim.Category.index Sim.Category.all in
  Alcotest.(check (list int)) "indices are 0..n-1"
    (List.init Sim.Category.count Fun.id)
    (List.sort compare idx);
  List.iter
    (fun c ->
      Alcotest.(check bool) "names non-empty" true
        (String.length (Sim.Category.to_string c) > 0))
    Sim.Category.all

let test_trace_by_thread () =
  let eng = Engine.create ~trace:true () in
  for _ = 1 to 2 do
    ignore (Engine.spawn eng (fun () -> Proc.work 5.; Proc.work 3.))
  done;
  Engine.run eng;
  let groups = Sim.Trace.by_thread (Engine.segments eng) in
  Alcotest.(check int) "two threads" 2 (List.length groups);
  List.iter
    (fun (_, segs) -> Alcotest.(check int) "two segments each" 2 (List.length segs))
    groups

let test_trace_render_pinned () =
  (* Crafted two-thread trace; pins the exact rendered output so the
     cursor-based cell scan stays equivalent to the original per-cell probe. *)
  let seg tid label cat t_start t_end =
    { Sim.Trace.tid; label; cat; t_start; t_end }
  in
  let segs =
    [
      seg 0 "a" Sim.Category.Work 0. 10.;
      seg 1 "c" Sim.Category.Work 5. 15.;
      seg 0 "b" Sim.Category.Runtime 10. 20.;
    ]
  in
  let expected =
    String.concat "\n"
      [
        "    time  T0       | T1      ";
        "       0  a        | .       ";
        "       5  a        | c       ";
        "      10  b        | c       ";
        "      15  b        | .       ";
      ]
  in
  Alcotest.(check string) "pinned render" expected (Sim.Trace.render ~width:4 segs)

let test_trace_by_thread_ordering () =
  let seg tid label t_start t_end =
    { Sim.Trace.tid; label; cat = Sim.Category.Work; t_start; t_end }
  in
  (* Interleaved insertion across threads, including an out-of-tid-order
     first appearance (tid 2 before tid 0). *)
  let segs =
    [
      seg 2 "x" 0. 1.;
      seg 0 "p" 0. 2.;
      seg 2 "y" 1. 3.;
      seg 0 "q" 2. 4.;
      seg 2 "z" 3. 5.;
    ]
  in
  let groups = Sim.Trace.by_thread segs in
  Alcotest.(check (list int)) "groups sorted by tid" [ 0; 2 ] (List.map fst groups);
  let labels tid =
    List.map (fun s -> s.Sim.Trace.label) (List.assoc tid groups)
  in
  Alcotest.(check (list string)) "tid 0 oldest-first" [ "p"; "q" ] (labels 0);
  Alcotest.(check (list string)) "tid 2 oldest-first" [ "x"; "y"; "z" ] (labels 2)

let test_trace_disabled_by_default () =
  let eng = Engine.create () in
  ignore (Engine.spawn eng (fun () -> Proc.work 5.));
  Engine.run eng;
  Alcotest.(check int) "no segments captured" 0 (List.length (Engine.segments eng))

let test_machine_pp () =
  let s = Format.asprintf "%a" Sim.Machine.pp Sim.Machine.default in
  Alcotest.(check bool) "machine pp renders" true (String.length s > 40)

let test_engine_charge_api () =
  let eng = Engine.create () in
  ignore (Engine.spawn eng ~name:"w" (fun () -> Proc.work 7.));
  Engine.run eng;
  Engine.charge eng 0 Sim.Category.Checker 3.;
  Alcotest.(check (float 1e-9)) "explicit charge recorded" 3.
    (Engine.charged eng 0 Sim.Category.Checker);
  Alcotest.(check (float 1e-9)) "busy sums categories" 10. (Engine.busy eng 0);
  Alcotest.(check string) "thread name" "w" (Engine.name_of eng 0);
  Alcotest.(check int) "thread count" 1 (Engine.thread_count eng)

let prop_engine_deterministic_makespan =
  QCheck.Test.make ~name:"engine makespan deterministic" ~count:50
    QCheck.(list_of_size Gen.(int_range 1 8) (int_range 1 100))
    (fun costs ->
      let run () =
        let eng = Engine.create () in
        List.iteri
          (fun i c ->
            ignore
              (Engine.spawn eng (fun () ->
                   Proc.work (float_of_int c);
                   Proc.work (float_of_int (i + 1)))))
          costs;
        Engine.run eng;
        Engine.now eng
      in
      run () = run ())

let suite =
  [
    Alcotest.test_case "advance/now" `Quick test_advance_and_now;
    Alcotest.test_case "parallel threads" `Quick test_parallel_threads_independent_clocks;
    Alcotest.test_case "equal times resume in schedule order" `Quick
      test_equal_time_scheduling_order;
    QCheck_alcotest.to_alcotest prop_resume_times_monotone;
    Alcotest.test_case "deadlock detection" `Quick test_deadlock_detection;
    Alcotest.test_case "deadlock two threads" `Quick test_deadlock_two_threads;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "barrier release" `Quick test_barrier;
    Alcotest.test_case "barrier wait accounting" `Quick test_barrier_wait_charged;
    Alcotest.test_case "barrier cyclic reuse" `Quick test_barrier_cyclic;
    Alcotest.test_case "channel fifo" `Quick test_channel_fifo;
    Alcotest.test_case "channel blocking" `Quick test_channel_blocks_until_produced;
    Alcotest.test_case "channel costs" `Quick test_channel_costs;
    Alcotest.test_case "try_consume" `Quick test_try_consume;
    Alcotest.test_case "mutex exclusion" `Quick test_mutex_exclusion;
    Alcotest.test_case "mono cell threshold" `Quick test_mono_cell;
    Alcotest.test_case "mono cell raise_to" `Quick test_mono_cell_raise_to;
    Alcotest.test_case "trace capture" `Quick test_trace_capture;
    Alcotest.test_case "work factor" `Quick test_machine_work_factor;
    Alcotest.test_case "mutex exception safety" `Quick test_mutex_exception_safety;
    Alcotest.test_case "category indexing" `Quick test_category_indexing;
    Alcotest.test_case "trace by thread" `Quick test_trace_by_thread;
    Alcotest.test_case "trace render pinned" `Quick test_trace_render_pinned;
    Alcotest.test_case "trace by_thread ordering" `Quick test_trace_by_thread_ordering;
    Alcotest.test_case "trace disabled by default" `Quick test_trace_disabled_by_default;
    Alcotest.test_case "machine pp" `Quick test_machine_pp;
    Alcotest.test_case "engine charge api" `Quick test_engine_charge_api;
    QCheck_alcotest.to_alcotest prop_engine_deterministic_makespan;
  ]
