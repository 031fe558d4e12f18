(* Tests for the serve subsystem: wire-codec round-trips, golden frames
   and fuzzing (truncation, bit flips, garbage), a property that a serve
   request resolves like [Crossinv.Request.make], the fairness queue, the
   daemon's scheduling contract (admission control, deadlines,
   cancellation, one shared pool across a thousand runs), a differential
   harness proving a submitted run ≡ the in-process
   [Crossinv.run_request] for every registry workload on both backends, a
   two-client socket integration test against a live daemon, and the
   socket wake-up's fd hygiene and back-to-back reply order. *)

module Cx = Xinv_core.Crossinv
module Wl = Xinv_workloads
module Wire = Xinv_serve.Wire
module Proto = Xinv_serve.Protocol
module SReq = Xinv_serve.Request
module Fair = Xinv_serve.Fair
module Server = Xinv_serve.Server
module SClient = Xinv_serve.Client

let tmpdir () =
  let d = Filename.temp_file "xinvserve" ".d" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  d

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with _ -> ())
      (Sys.readdir dir);
    try Unix.rmdir dir with _ -> ()
  end

(* ---------- wire primitives ---------- *)

let test_wire_prims () =
  let w = Wire.writer () in
  Wire.put_u8 w 0;
  Wire.put_u8 w 255;
  Wire.put_u32 w 0;
  Wire.put_u32 w 0x7FFFFFFF;
  Wire.put_i64 w (-123456789);
  Wire.put_f64 w (-3.25);
  Wire.put_f64 w infinity;
  Wire.put_bool w true;
  Wire.put_bool w false;
  Wire.put_string w "";
  Wire.put_string w "nul\000bytes\255kept";
  Wire.put_opt w Wire.put_u32 None;
  Wire.put_opt w Wire.put_u32 (Some 7);
  Wire.put_list w Wire.put_string [ "a"; ""; "bc" ];
  let r = Wire.reader (Wire.contents w) in
  Alcotest.(check int) "u8 0" 0 (Wire.get_u8 r);
  Alcotest.(check int) "u8 255" 255 (Wire.get_u8 r);
  Alcotest.(check int) "u32 0" 0 (Wire.get_u32 r);
  Alcotest.(check int) "u32 max" 0x7FFFFFFF (Wire.get_u32 r);
  Alcotest.(check int) "i64 negative" (-123456789) (Wire.get_i64 r);
  Alcotest.(check (float 0.)) "f64" (-3.25) (Wire.get_f64 r);
  Alcotest.(check bool) "f64 inf" true (Wire.get_f64 r = infinity);
  Alcotest.(check bool) "bool t" true (Wire.get_bool r);
  Alcotest.(check bool) "bool f" false (Wire.get_bool r);
  Alcotest.(check string) "empty string" "" (Wire.get_string r);
  Alcotest.(check string) "binary string" "nul\000bytes\255kept"
    (Wire.get_string r);
  Alcotest.(check (option int)) "opt none" None (Wire.get_opt r Wire.get_u32);
  Alcotest.(check (option int)) "opt some" (Some 7)
    (Wire.get_opt r Wire.get_u32);
  Alcotest.(check (list string)) "list" [ "a"; ""; "bc" ]
    (Wire.get_list r Wire.get_string);
  Alcotest.(check bool) "reader done" true (Wire.reader_done r);
  (match Wire.get_u8 r with
  | _ -> Alcotest.fail "read past end must raise"
  | exception Wire.Error Wire.Truncated -> ());
  (* a bool byte that is neither 0 nor 1 is a domain error *)
  let w2 = Wire.writer () in
  Wire.put_u8 w2 2;
  match Wire.get_bool (Wire.reader (Wire.contents w2)) with
  | _ -> Alcotest.fail "bad bool byte must raise"
  | exception Wire.Error (Wire.Bad_payload _) -> ()

let test_frame_roundtrip () =
  List.iter
    (fun payload ->
      let s = Wire.encode_frame ~tag:9 payload in
      let tag, back = Wire.decode_frame s in
      Alcotest.(check int) "tag" 9 tag;
      Alcotest.(check string) "payload" payload back)
    [ ""; "x"; String.make 1000 '\000'; "frame\255\001" ]

(* ---------- request / protocol round-trips ---------- *)

let sample_request =
  SReq.make ~input:Wl.Workload.Train ~backend:`Native ~technique:"domore"
    ~threads:3 ~policy:`Auto ~grain:2 ~batch:16 ~sig_kind:`Bloom
    ~spec_distance:5 ~checkpoint_every:250 ~verify:false ~cache:`Ro
    ~fault:"stall@1:7" ~deadline_ms:1250.5 ~priority:`High ~tenant:"acme"
    (`Name "FDTD")

let sample_snapshot () =
  let m = Xinv_obs.Metrics.create () in
  Xinv_obs.Metrics.incr (Xinv_obs.Metrics.counter m "serve.submitted");
  Xinv_obs.Metrics.set (Xinv_obs.Metrics.gauge m "serve.queue.depth") 3.5;
  let h = Xinv_obs.Metrics.histogram m "serve.queue_wait_ms" in
  List.iter (Xinv_obs.Metrics.observe h) [ 0.5; 3.; 700. ];
  Xinv_obs.Snapshot.take m

let client_msgs () =
  [
    Proto.Run sample_request;
    Proto.Run (SReq.make (`Name "CG"));
    Proto.Ping;
    Proto.Stats;
    Proto.Shutdown;
  ]

let server_msgs () =
  [
    Proto.Outcome
      {
        Proto.o_workload = "FDTD";
        o_technique = "barrier";
        o_cost_kind = `Wall_ns;
        o_cost = 123456.;
        o_seq_cost = 654321.;
        o_speedup = 5.3;
        o_verified = true;
        o_mismatches = 0;
        o_degraded = [ ("domore", "barrier", "stall") ];
        o_analysis_ns = 999.;
        o_cache_hits = 2;
        o_cache_misses = 1;
        o_policy_source = "cached";
        o_tasks = 4096;
        o_queue_wait_ns = 1.5e6;
      };
    Proto.Rejected (Proto.Queue_full 1024);
    Proto.Rejected (Proto.Unknown_workload "NOPE");
    Proto.Rejected (Proto.Bad_request "bad");
    Proto.Rejected Proto.Shutting_down;
    Proto.Rejected Proto.Deadline_exceeded;
    Proto.Rejected Proto.Cancelled;
    Proto.Failed "Exception: boom";
    Proto.Pong
      {
        Proto.p_uptime_ns = 1e9;
        p_pool_domains = 2;
        p_pool_creates = 1;
        p_queued = 7;
        p_served = 41;
      };
    Proto.Stats_reply (sample_snapshot ());
    Proto.Shutdown_ack { served = 1000 };
  ]

let test_protocol_roundtrip () =
  List.iter
    (fun m ->
      let back = Proto.decode_client (Proto.encode_client m) in
      Alcotest.(check bool) "client msg round-trips" true (m = back))
    (client_msgs ());
  List.iter
    (fun m ->
      let back = Proto.decode_server (Proto.encode_server m) in
      Alcotest.(check bool) "server msg round-trips" true (m = back))
    (server_msgs ())

let test_protocol_wrong_side () =
  (* a server decoder fed a client frame (and vice versa) rejects the tag *)
  (match Proto.decode_server (Proto.encode_client Proto.Ping) with
  | _ -> Alcotest.fail "server decoder must reject client tag"
  | exception Wire.Error (Wire.Bad_tag _) -> ());
  match Proto.decode_client (Proto.encode_server (Proto.Failed "x")) with
  | _ -> Alcotest.fail "client decoder must reject server tag"
  | exception Wire.Error (Wire.Bad_tag _) -> ()

(* qcheck: random requests survive the wire unchanged *)
let gen_request =
  let open QCheck.Gen in
  let str = string_size ~gen:(char_range '\000' '\255') (int_range 0 12) in
  let* workload = map (fun s -> `Name s) str in
  let* input =
    oneofl
      [ Wl.Workload.Train; Wl.Workload.Train_spec; Wl.Workload.Ref;
        Wl.Workload.Ref_spec ]
  in
  let* backend = oneofl [ `Sim; `Native ] in
  let* technique = str in
  let* threads = int_range 1 64 in
  let* policy = oneofl [ `Fixed; `Auto ] in
  let* grain = int_range 1 100 in
  let* batch = int_range 1 100 in
  let* sig_kind =
    oneofl [ None; Some `Range; Some `Segmented; Some `Bloom; Some `Exact ]
  in
  let* spec_distance = opt (int_range 0 50) in
  let* checkpoint_every = int_range 1 100000 in
  let* verify = bool in
  let* cache = oneofl [ `Off; `Ro; `Rw ] in
  let* fault = opt str in
  let* deadline = opt (map float_of_int (int_range 1 1000000)) in
  let* priority = oneofl [ `High; `Normal ] in
  let* tenant = str in
  return
    (SReq.make ~input ~backend ~technique ~threads ~policy ~grain ~batch
       ?sig_kind ?spec_distance ~checkpoint_every ~verify ~cache ?fault
       ?deadline_ms:deadline ~priority ~tenant workload)

(* One mapping from data to a run: any valid serve request resolves to
   exactly the core request [Crossinv.Request.make] builds from the same
   arguments, field by field, on either backend.  Every argument is
   optional, so the case with none of them is the bare request, and the
   two records' defaults must agree. *)
type core_args = {
  c_input : Wl.Workload.input option;
  c_backend : [ `Sim | `Native ] option;
  c_technique : Cx.technique option;
  c_threads : int option;
  c_policy : [ `Fixed | `Auto ] option;
  c_grain : int option;
  c_batch : int option;
  c_sig : [ `Range | `Segmented | `Bloom | `Exact ] option;
  c_spec : int option;
  c_epoch : int option;
  c_verify : bool option;
  c_cache : [ `Off | `Ro | `Rw ] option;
}

let no_args =
  {
    c_input = None;
    c_backend = None;
    c_technique = None;
    c_threads = None;
    c_policy = None;
    c_grain = None;
    c_batch = None;
    c_sig = None;
    c_spec = None;
    c_epoch = None;
    c_verify = None;
    c_cache = None;
  }

let all_techniques =
  Cx.
    [
      Sequential; Barrier; Doacross; Dswp; Inspector; Tls; Domore; Domore_dup;
      Speccross; Speccross_inject 3;
    ]

let gen_core_args =
  let open QCheck.Gen in
  let* c_input =
    opt
      (oneofl
         [ Wl.Workload.Train; Wl.Workload.Train_spec; Wl.Workload.Ref;
           Wl.Workload.Ref_spec ])
  in
  let* c_backend = opt (oneofl [ `Sim; `Native ]) in
  let* c_technique = opt (oneofl all_techniques) in
  let* c_threads = opt (int_range 1 64) in
  let* c_policy = opt (oneofl [ `Fixed; `Auto ]) in
  let* c_grain = opt (int_range 1 100) in
  let* c_batch = opt (int_range 1 100) in
  let* c_sig = opt (oneofl [ `Range; `Segmented; `Bloom; `Exact ]) in
  let* c_spec = opt (int_range 0 50) in
  let* c_epoch = opt (int_range 1 100000) in
  let* c_verify = opt bool in
  let* c_cache = opt (oneofl [ `Off; `Ro; `Rw ]) in
  return
    {
      c_input;
      c_backend;
      c_technique;
      c_threads;
      c_policy;
      c_grain;
      c_batch;
      c_sig;
      c_spec;
      c_epoch;
      c_verify;
      c_cache;
    }

let resolves_like_core a =
  let wl = Wl.Registry.find "CG" in
  let sreq =
    SReq.make ?input:a.c_input ?backend:a.c_backend
      ?technique:(Option.map Cx.technique_name a.c_technique)
      ?threads:a.c_threads ?policy:a.c_policy ?grain:a.c_grain
      ?batch:a.c_batch ?sig_kind:a.c_sig ?spec_distance:a.c_spec
      ?checkpoint_every:a.c_epoch ?verify:a.c_verify ?cache:a.c_cache
      (`Name "CG")
  in
  let got =
    match SReq.to_crossinv sreq with
    | Ok r -> r
    | Error _ -> QCheck.Test.fail_report "valid request does not resolve"
  in
  let backend =
    match a.c_backend with
    | None | Some `Sim -> `Sim None
    | Some `Native ->
        let d = Cx.native_defaults in
        `Native
          {
            d with
            Cx.grain = Option.value a.c_grain ~default:d.Cx.grain;
            batch = Option.value a.c_batch ~default:d.Cx.batch;
          }
  in
  let want =
    Cx.Request.make ~backend ?input:a.c_input ?checkpoint_every:a.c_epoch
      ?verify:a.c_verify ?cache:a.c_cache
      ?policy:(a.c_policy :> Cx.policy option)
      ?sig_kind:a.c_sig ?spec_distance:a.c_spec
      ~technique:(Option.value a.c_technique ~default:Cx.Sequential)
      ~threads:(Option.value a.c_threads ~default:1)
      wl
  in
  let kind (r : Cx.Request.t) =
    match r.Cx.Request.backend with `Sim _ -> "sim" | `Native _ -> "native"
  in
  let opts = Cx.Request.native_opts in
  let field name eq =
    if not (eq got want) then
      QCheck.Test.fail_reportf "%s differs (%s backend)" name (kind want)
  in
  field "backend kind" (fun a b -> kind a = kind b);
  field "technique" (fun a b -> a.Cx.Request.technique = b.Cx.Request.technique);
  field "threads" (fun a b -> a.Cx.Request.threads = b.Cx.Request.threads);
  field "input" (fun a b -> a.Cx.Request.input = b.Cx.Request.input);
  field "checkpoint_every" (fun a b ->
      a.Cx.Request.checkpoint_every = b.Cx.Request.checkpoint_every);
  field "verify" (fun a b -> a.Cx.Request.verify = b.Cx.Request.verify);
  field "cache" (fun a b -> a.Cx.Request.cache = b.Cx.Request.cache);
  field "policy" (fun a b -> a.Cx.Request.policy = b.Cx.Request.policy);
  field "sig_kind" (fun a b -> a.Cx.Request.sig_kind = b.Cx.Request.sig_kind);
  field "spec_distance" (fun a b ->
      a.Cx.Request.spec_distance = b.Cx.Request.spec_distance);
  field "grain" (fun a b -> (opts a).Cx.grain = (opts b).Cx.grain);
  field "batch" (fun a b -> (opts a).Cx.batch = (opts b).Cx.batch);
  true

let prop_resolves_like_core =
  QCheck.Test.make ~name:"serve request resolves like Crossinv.Request.make"
    ~count:300 (QCheck.make gen_core_args) resolves_like_core

let test_make_defaults_match_core () =
  List.iter
    (fun backend ->
      Alcotest.(check bool) "bare request" true
        (resolves_like_core { no_args with c_backend = backend }))
    [ None; Some `Native ]

(* Golden frames: the two run requests above as the xinv-serve/1 encoder
   wrote them, and the core request data each resolved to.  A frame
   recorded once must keep decoding to the same run, whatever the record
   behind the codec looks like now. *)
let golden_frames =
  [
    ( "5853525601010000004fa8246e05f4bdd304a89b4f026e8172df000000000446445444\
       000100000006646f6d6f72650000000301000000020000001001020100000005000000\
       fa000101000000097374616c6c40313a370140938a0000000000000000000461636d65",
      "wl=FDTD tech=domore threads=3 backend=native grain=2 batch=16 \
       input=train ckpt=250 verify=false cache=ro policy=auto sig=bloom \
       spec=5 fault=stall@1:7" );
    ( "5853525601010000003af3340ef5b48899ccebfd9889fe6c571f000000000243470200\
       0000000a73657175656e7469616c000000010000000001000000200000000003e80100\
       0000010000000764656661756c74",
      "wl=CG tech=sequential threads=1 backend=sim grain=1 batch=32 \
       input=ref ckpt=1000 verify=true cache=off policy=fixed \
       sig=segmented spec=none fault=none" );
  ]

let of_hex h =
  String.init (String.length h / 2) (fun i ->
      Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

let show_core (r : Cx.Request.t) =
  let o = Cx.Request.native_opts r in
  Printf.sprintf
    "wl=%s tech=%s threads=%d backend=%s grain=%d batch=%d input=%s ckpt=%d \
     verify=%b cache=%s policy=%s sig=%s spec=%s fault=%s"
    r.Cx.Request.workload.Wl.Workload.name
    (Cx.technique_name r.Cx.Request.technique)
    r.Cx.Request.threads
    (match r.Cx.Request.backend with `Sim _ -> "sim" | `Native _ -> "native")
    o.Cx.grain o.Cx.batch
    (Wl.Workload.input_name r.Cx.Request.input)
    r.Cx.Request.checkpoint_every r.Cx.Request.verify
    (match r.Cx.Request.cache with `Off -> "off" | `Ro -> "ro" | `Rw -> "rw")
    (match r.Cx.Request.policy with `Fixed -> "fixed" | `Auto -> "auto")
    (Xinv_cache.Policy.sig_kind_name r.Cx.Request.sig_kind)
    (match r.Cx.Request.spec_distance with
    | None -> "none"
    | Some d -> string_of_int d)
    (match o.Cx.fault with
    | None -> "none"
    | Some f -> Xinv_native.Fault.spec_to_string f)

let test_golden_frames () =
  List.iter
    (fun (hex, want) ->
      match Proto.decode_client (of_hex hex) with
      | Proto.Run req -> (
          match SReq.to_crossinv req with
          | Ok r -> Alcotest.(check string) "resolved core request" want (show_core r)
          | Error _ -> Alcotest.fail "golden frame does not resolve")
      | _ -> Alcotest.fail "golden frame is not a run request")
    golden_frames

(* qcheck: random outcome summaries survive the wire, including those of a
   run without a baseline, whose [nan] slots compare by bits *)
let gen_summary =
  let open QCheck.Gen in
  let str = string_size ~gen:(char_range '\000' '\255') (int_range 0 12) in
  let f = float_range 0. 1e12 in
  let* o_workload = str in
  let* o_technique = str in
  let* o_cost_kind = oneofl [ `Cycles; `Wall_ns ] in
  let* o_cost = f in
  let* o_seq_cost, o_speedup =
    oneof [ pair f (float_range 0. 64.); return (Float.nan, Float.nan) ]
  in
  let* o_verified = bool in
  let* o_mismatches = int_range 0 1000 in
  let* o_degraded = list_size (int_range 0 3) (triple str str str) in
  let* o_analysis_ns = f in
  let* o_cache_hits = int_range 0 100 in
  let* o_cache_misses = int_range 0 100 in
  let* o_policy_source = str in
  let* o_tasks = int_range 0 1_000_000 in
  let* o_queue_wait_ns = f in
  return
    {
      Proto.o_workload; o_technique; o_cost_kind; o_cost; o_seq_cost;
      o_speedup; o_verified; o_mismatches; o_degraded; o_analysis_ns;
      o_cache_hits; o_cache_misses; o_policy_source; o_tasks; o_queue_wait_ns;
    }

let same_summary (a : Proto.summary) (b : Proto.summary) =
  let bits (f : Proto.summary -> float) = Int64.bits_of_float (f a) = Int64.bits_of_float (f b) in
  let zero s =
    { s with Proto.o_cost = 0.; o_seq_cost = 0.; o_speedup = 0.;
             o_analysis_ns = 0.; o_queue_wait_ns = 0. }
  in
  zero a = zero b
  && bits (fun s -> s.Proto.o_cost)
  && bits (fun s -> s.Proto.o_seq_cost)
  && bits (fun s -> s.Proto.o_speedup)
  && bits (fun s -> s.Proto.o_analysis_ns)
  && bits (fun s -> s.Proto.o_queue_wait_ns)

let prop_summary_roundtrip =
  QCheck.Test.make ~name:"random outcome summary survives the wire" ~count:200
    (QCheck.make gen_summary)
    (fun s ->
      match Proto.decode_server (Proto.encode_server (Proto.Outcome s)) with
      | Proto.Outcome back -> same_summary s back
      | _ -> false)

let prop_request_roundtrip =
  QCheck.Test.make ~name:"random run request survives the wire" ~count:200
    (QCheck.make gen_request)
    (fun req -> Proto.decode_client (Proto.encode_client (Proto.Run req))
                = Proto.Run req)

(* ---------- adversarial decoding ---------- *)

let test_truncation () =
  let frame = Proto.encode_client (Proto.Run sample_request) in
  for n = 0 to String.length frame - 1 do
    match Proto.decode_client (String.sub frame 0 n) with
    | _ -> Alcotest.failf "prefix of %d bytes decoded" n
    | exception Wire.Error Wire.Truncated -> ()
    | exception e ->
        Alcotest.failf "prefix of %d bytes: unexpected %s" n
          (Printexc.to_string e)
  done

let test_bitflips () =
  let frame = Proto.encode_client (Proto.Run sample_request) in
  let original = Proto.Run sample_request in
  for i = 0 to String.length frame - 1 do
    for bit = 0 to 7 do
      let b = Bytes.of_string frame in
      Bytes.set b i (Char.chr (Char.code frame.[i] lxor (1 lsl bit)));
      match Proto.decode_client (Bytes.to_string b) with
      | m ->
          (* only a tag-byte flip can decode at all, and then never to the
             original message *)
          if m = original then
            Alcotest.failf "flip byte %d bit %d decoded to the original" i bit
      | exception Wire.Error _ -> ()
      | exception e ->
          Alcotest.failf "flip byte %d bit %d: unexpected %s" i bit
            (Printexc.to_string e)
    done
  done

let prop_garbage =
  QCheck.Test.make ~name:"garbage bytes raise a typed wire error" ~count:500
    QCheck.(string_gen_of_size (QCheck.Gen.int_range 0 200)
              (QCheck.Gen.char_range '\000' '\255'))
    (fun s ->
      match Proto.decode_client s with
      | _ -> s = Proto.encode_client Proto.Ping (* astronomically unlikely *)
      | exception Wire.Error _ -> true)

(* ---------- fairness queue ---------- *)

let test_fair_priority_and_rotation () =
  let q = Fair.create ~capacity:16 in
  let ok = function Ok () -> () | Error _ -> Alcotest.fail "push rejected" in
  ok (Fair.push q ~priority:`Normal ~tenant:"a" "a1");
  ok (Fair.push q ~priority:`Normal ~tenant:"a" "a2");
  ok (Fair.push q ~priority:`Normal ~tenant:"b" "b1");
  ok (Fair.push q ~priority:`High ~tenant:"c" "c1");
  ok (Fair.push q ~priority:`High ~tenant:"d" "d1");
  ok (Fair.push q ~priority:`High ~tenant:"c" "c2");
  Alcotest.(check int) "length" 6 (Fair.length q);
  (* high level drains first, round-robin c,d,c; then normal a,b,a *)
  let order = List.init 6 (fun _ -> Option.get (Fair.pop q)) in
  Alcotest.(check (list string)) "dispatch order"
    [ "c1"; "d1"; "c2"; "a1"; "b1"; "a2" ]
    order;
  Alcotest.(check (option string)) "empty" None (Fair.pop q)

let test_fair_capacity () =
  let q = Fair.create ~capacity:2 in
  Alcotest.(check bool) "push 1" true
    (Fair.push q ~priority:`Normal ~tenant:"t" 1 = Ok ());
  Alcotest.(check bool) "push 2" true
    (Fair.push q ~priority:`High ~tenant:"u" 2 = Ok ());
  Alcotest.(check bool) "push 3 rejected" true
    (Fair.push q ~priority:`Normal ~tenant:"t" 3 = Error (`Full 2));
  ignore (Fair.pop q);
  Alcotest.(check bool) "push after pop" true
    (Fair.push q ~priority:`Normal ~tenant:"t" 4 = Ok ())

let test_fair_remove () =
  let q = Fair.create ~capacity:8 in
  List.iter
    (fun (p, t, x) -> ignore (Fair.push q ~priority:p ~tenant:t x))
    [ (`Normal, "a", 1); (`Normal, "a", 2); (`High, "b", 3) ];
  Alcotest.(check (option int)) "remove hit" (Some 2)
    (Fair.remove q (fun x -> x = 2));
  Alcotest.(check (option int)) "remove miss" None
    (Fair.remove q (fun x -> x = 99));
  Alcotest.(check int) "length after remove" 2 (Fair.length q);
  Alcotest.(check (option int)) "high first" (Some 3) (Fair.pop q);
  Alcotest.(check (option int)) "then normal" (Some 1) (Fair.pop q);
  Alcotest.(check (list string)) "tenants empty" [] (Fair.tenants q)

(* ---------- daemon scheduling contract (in-process) ---------- *)

let sim_req ?(workload = "FDTD") ?(tenant = "default") ?(priority = `Normal)
    ?deadline_ms () =
  SReq.make ~backend:`Sim ~technique:"barrier" ~threads:8
    ~input:Wl.Workload.Train ?deadline_ms ~priority ~tenant (`Name workload)

let native_req ?(workload = "FDTD") ?(tenant = "default")
    ?(priority = `Normal) ?fault () =
  SReq.make ~backend:`Native ~technique:"barrier" ~threads:2
    ~input:Wl.Workload.Train ?fault ~priority ~tenant (`Name workload)

let with_server ?(domains = 2) ?(capacity = 1024) ?(cache = `Off) ?cache_dir
    ?default_deadline_ms f =
  let srv =
    Server.create
      {
        Server.domains;
        queue_capacity = capacity;
        cache;
        cache_dir;
        default_deadline_ms;
      }
  in
  Fun.protect ~finally:(fun () -> Server.stop srv) (fun () -> f srv)

let test_admission_control () =
  with_server ~domains:1 ~capacity:3 (fun srv ->
      (* scheduler not started: everything stays queued *)
      let jobs = List.init 3 (fun _ -> Server.submit srv (sim_req ())) in
      Alcotest.(check int) "queued" 3 (Server.queued srv);
      List.iter
        (fun j ->
          Alcotest.(check bool) "accepted job pending" true
            (Server.peek j = None))
        jobs;
      let over = Server.submit srv (sim_req ()) in
      Alcotest.(check bool) "overflow rejected full" true
        (Server.peek over = Some (Proto.Rejected (Proto.Queue_full 3)));
      Server.stop srv;
      (* stop without drain rejects the queued jobs *)
      List.iter
        (fun j ->
          Alcotest.(check bool) "queued job rejected at stop" true
            (Server.await j = Proto.Rejected Proto.Shutting_down))
        jobs;
      let late = Server.submit srv (sim_req ()) in
      Alcotest.(check bool) "post-stop submit rejected" true
        (Server.peek late = Some (Proto.Rejected Proto.Shutting_down)))

let test_bad_requests () =
  with_server ~domains:1 (fun srv ->
      Server.start srv;
      let j1 = Server.submit srv (sim_req ~workload:"NO_SUCH" ()) in
      Alcotest.(check bool) "unknown workload" true
        (Server.await j1 = Proto.Rejected (Proto.Unknown_workload "NO_SUCH"));
      let j2 =
        Server.submit srv
          (SReq.make ~technique:"warp-drive" (`Name "FDTD"))
      in
      (match Server.await j2 with
      | Proto.Rejected (Proto.Bad_request _) -> ()
      | m -> Alcotest.failf "bad technique: %s" (Format.asprintf "%a" Proto.pp_server m));
      let j3 =
        Server.submit srv (native_req ~fault:"not-a-fault-spec" ())
      in
      match Server.await j3 with
      | Proto.Rejected (Proto.Bad_request _) -> ()
      | m ->
          Alcotest.failf "bad fault spec: %s"
            (Format.asprintf "%a" Proto.pp_server m))

let test_deadline_missed_in_queue () =
  with_server ~domains:1 (fun srv ->
      let j = Server.submit srv (sim_req ~deadline_ms:0.001 ()) in
      Thread.delay 0.03;
      Server.start srv;
      Alcotest.(check bool) "deadline rejection" true
        (Server.await j = Proto.Rejected Proto.Deadline_exceeded);
      let snap = Server.snapshot srv in
      Alcotest.(check (option int)) "deadline_missed counter" (Some 1)
        (Xinv_obs.Snapshot.counter snap "serve.deadline_missed");
      Alcotest.(check (option int)) "tenant deadline counter" (Some 1)
        (Xinv_obs.Snapshot.counter snap
           "serve.tenant.default.deadline_missed"))

let test_cancel_queued () =
  with_server ~domains:1 (fun srv ->
      let j = Server.submit srv (sim_req ()) in
      Alcotest.(check int) "queued before cancel" 1 (Server.queued srv);
      Server.cancel srv j;
      Alcotest.(check bool) "cancelled" true
        (Server.await j = Proto.Rejected Proto.Cancelled);
      Alcotest.(check int) "withdrawn" 0 (Server.queued srv);
      Server.cancel srv j (* finished: no-op *))

(* The client-disconnect regression: cancelling a running job unwinds only
   that cohort.  Job A parks a worker via an injected fault; the cancel
   must free the shared pool for tenant B's run, with zero pool churn. *)
let test_cancel_running_pool_survives () =
  with_server ~domains:2 (fun srv ->
      Server.start srv;
      let a =
        Server.submit srv (native_req ~tenant:"a" ~fault:"poison@1:0" ())
      in
      (* wait until A has been popped and is executing *)
      let deadline = Unix.gettimeofday () +. 5. in
      while
        Server.queued srv > 0
        && Unix.gettimeofday () < deadline
      do
        Thread.delay 0.005
      done;
      Thread.delay 0.05 (* let the attempt arm its watchdog and park *);
      let b = Server.submit srv (native_req ~tenant:"b" ()) in
      Server.cancel srv a;
      Alcotest.(check bool) "A cancelled" true
        (Server.await a = Proto.Rejected Proto.Cancelled);
      (match Server.await b with
      | Proto.Outcome s ->
          Alcotest.(check bool) "B verified on the shared pool" true
            s.Proto.o_verified
      | m ->
          Alcotest.failf "B: %s" (Format.asprintf "%a" Proto.pp_server m));
      Alcotest.(check int) "pool survived the cancel" 1
        (Server.pool_creates srv);
      let snap = Server.snapshot srv in
      Alcotest.(check (option int)) "cancelled counter" (Some 1)
        (Xinv_obs.Snapshot.counter snap "serve.cancelled"))

(* ---------- differential: submit ≡ run_request ---------- *)

let pick_technique ~backend wl =
  let candidates =
    List.filter (fun t -> t <> Cx.Sequential) (Cx.supported ~backend)
    @ [ Cx.Sequential ]
  in
  List.find
    (fun t ->
      match Cx.applicable ~backend t wl with
      | Ok () -> true
      | Error _ -> false)
    candidates

let summary_of_inprocess wl o =
  Proto.summary_of_outcome ~workload:wl.Wl.Workload.name ~queue_wait_ns:0. o

let test_differential_submit_vs_inprocess () =
  with_server ~domains:6 (fun srv ->
      Server.start srv;
      List.iter
        (fun (wl : Wl.Workload.t) ->
          List.iter
            (fun backend ->
              let technique = pick_technique ~backend wl in
              let threads = match backend with `Sim -> 8 | `Native -> 2 in
              let o_in =
                Cx.run_request
                @@ Cx.Request.make
                     ~backend:
                       (match backend with
                       | `Sim -> `Sim None
                       | `Native -> `Native Cx.native_defaults)
                     ~input:Wl.Workload.Train ~technique ~threads wl
              in
              let s_in = summary_of_inprocess wl o_in in
              let req =
                SReq.make
                  ~backend:(backend :> [ `Sim | `Native ])
                  ~technique:(Cx.technique_name technique)
                  ~threads ~input:Wl.Workload.Train
                  (`Name wl.Wl.Workload.name)
              in
              let label =
                Printf.sprintf "%s/%s" wl.Wl.Workload.name
                  (match backend with `Sim -> "sim" | `Native -> "native")
              in
              match Server.await (Server.submit srv req) with
              | Proto.Outcome s ->
                  Alcotest.(check string) (label ^ " workload")
                    s_in.Proto.o_workload s.Proto.o_workload;
                  Alcotest.(check string) (label ^ " technique")
                    s_in.Proto.o_technique s.Proto.o_technique;
                  Alcotest.(check bool) (label ^ " verified") true
                    (s_in.Proto.o_verified && s.Proto.o_verified);
                  Alcotest.(check int) (label ^ " mismatches")
                    s_in.Proto.o_mismatches s.Proto.o_mismatches;
                  Alcotest.(check string) (label ^ " policy source")
                    s_in.Proto.o_policy_source s.Proto.o_policy_source;
                  Alcotest.(check bool) (label ^ " degradations") true
                    (s_in.Proto.o_degraded = s.Proto.o_degraded);
                  Alcotest.(check int) (label ^ " tasks")
                    s_in.Proto.o_tasks s.Proto.o_tasks;
                  if backend = `Sim then begin
                    Alcotest.(check bool) (label ^ " sim tasks counted") true
                      (s.Proto.o_tasks > 0);
                    (* virtual time: the whole outcome is bit-identical *)
                    Alcotest.(check bool) (label ^ " cost kind") true
                      (s.Proto.o_cost_kind = `Cycles);
                    Alcotest.(check (float 0.)) (label ^ " cost")
                      s_in.Proto.o_cost s.Proto.o_cost;
                    Alcotest.(check (float 0.)) (label ^ " seq cost")
                      s_in.Proto.o_seq_cost s.Proto.o_seq_cost;
                    Alcotest.(check (float 0.)) (label ^ " speedup")
                      s_in.Proto.o_speedup s.Proto.o_speedup
                  end
                  else begin
                    Alcotest.(check bool) (label ^ " cost kind") true
                      (s.Proto.o_cost_kind = `Wall_ns)
                  end
              | m ->
                  Alcotest.failf "%s: %s" label
                    (Format.asprintf "%a" Proto.pp_server m))
            [ `Sim; `Native ])
        (Wl.Registry.all ()))

(* ---------- a submitted run without a baseline ---------- *)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_unverified_submit_has_no_baseline () =
  with_server ~domains:1 (fun srv ->
      Server.start srv;
      let req =
        SReq.make ~backend:`Native ~technique:"barrier" ~threads:2
          ~input:Wl.Workload.Train ~verify:false (`Name "SYMM")
      in
      match Server.await (Server.submit srv req) with
      | Proto.Outcome s as m ->
          Alcotest.(check bool) "seq cost slot is nan" true
            (Float.is_nan s.Proto.o_seq_cost);
          Alcotest.(check bool) "speedup slot is nan" true
            (Float.is_nan s.Proto.o_speedup);
          Alcotest.(check bool) "unchecked counts as verified" true
            s.Proto.o_verified;
          let shown = Format.asprintf "%a" Proto.pp_server m in
          Alcotest.(check bool) "says not measured" true
            (contains shown "seq cost         not measured (verify off)");
          Alcotest.(check bool) "prints no nan" false (contains shown "nan");
          Alcotest.(check bool) "prints no speedup line" false
            (contains shown "speedup")
      | m -> Alcotest.failf "%s" (Format.asprintf "%a" Proto.pp_server m))

(* ---------- refused requests ---------- *)

(* Refused requests: the daemon replies [Failed] with the reason
   [run_request] raises in-process, on both backends, and keeps serving. *)
let test_refused_submit_vs_inprocess () =
  with_server ~domains:2 (fun srv ->
      Server.start srv;
      List.iter
        (fun (name, technique) ->
          List.iter
            (fun backend ->
              let threads = match backend with `Sim -> 8 | `Native -> 2 in
              let label =
                Printf.sprintf "%s/%s/%s" name (Cx.technique_name technique)
                  (match backend with `Sim -> "sim" | `Native -> "native")
              in
              let raised =
                match
                  Cx.run_request
                  @@ Cx.Request.make
                       ~backend:
                         (match backend with
                         | `Sim -> `Sim None
                         | `Native -> `Native Cx.native_defaults)
                       ~input:Wl.Workload.Train ~technique ~threads
                       (Wl.Registry.find name)
                with
                | _ -> Alcotest.failf "%s: ran in-process" label
                | exception Failure m -> m
              in
              Alcotest.(check bool) (label ^ " says inapplicable") true
                (contains raised "is inapplicable to");
              let req =
                SReq.make ~backend ~technique:(Cx.technique_name technique) ~threads
                  ~input:Wl.Workload.Train (`Name name)
              in
              match Server.await (Server.submit srv req) with
              | Proto.Failed why -> Alcotest.(check string) label raised why
              | m ->
                  Alcotest.failf "%s: %s" label (Format.asprintf "%a" Proto.pp_server m))
            [ `Sim; `Native ])
        [
          ("ECLAT", Cx.Speccross);
          ("BLACKSCHOLES", Cx.Speccross);
          ("JACOBI", Cx.Domore);
          ("JACOBI", Cx.Domore_dup);
          ("LOOPDEP", Cx.Domore);
          ("LOOPDEP", Cx.Domore_dup);
        ];
      let req =
        SReq.make ~backend:`Native ~technique:"barrier" ~threads:2
          ~input:Wl.Workload.Train (`Name "SYMM")
      in
      match Server.await (Server.submit srv req) with
      | Proto.Outcome s -> Alcotest.(check bool) "still serving" true s.Proto.o_verified
      | m -> Alcotest.failf "after refusals: %s" (Format.asprintf "%a" Proto.pp_server m))

(* ---------- one shared pool across a thousand queued runs ---------- *)

let test_thousand_requests_one_pool () =
  with_server ~domains:2 ~capacity:1024 (fun srv ->
      let jobs =
        List.init 1000 (fun i ->
            let tenant = Printf.sprintf "t%d" (i mod 7) in
            let priority = if i mod 13 = 0 then `High else `Normal in
            let req =
              if i mod 10 = 0 then native_req ~tenant ~priority ()
              else sim_req ~tenant ~priority ()
            in
            Server.submit srv req)
      in
      Alcotest.(check int) "all queued" 1000 (Server.queued srv);
      Server.start srv;
      let bad = ref 0 in
      List.iter
        (fun j ->
          match Server.await j with
          | Proto.Outcome s when s.Proto.o_verified -> ()
          | _ -> incr bad)
        jobs;
      Alcotest.(check int) "all verified" 0 !bad;
      Alcotest.(check int) "exactly one pool" 1 (Server.pool_creates srv);
      Alcotest.(check int) "served" 1000 (Server.served srv);
      let snap = Server.snapshot srv in
      Alcotest.(check (option int)) "pool.create counter" (Some 1)
        (Xinv_obs.Snapshot.counter snap "serve.pool.create");
      Alcotest.(check (option int)) "completed counter" (Some 1000)
        (Xinv_obs.Snapshot.counter snap "serve.completed");
      let wait_hist =
        List.find
          (fun h -> h.Xinv_obs.Snapshot.s_name = "serve.queue_wait_ms")
          snap.Xinv_obs.Snapshot.s_hists
      in
      Alcotest.(check int) "every run's queue wait observed" 1000
        wait_hist.Xinv_obs.Snapshot.s_count)

(* ---------- tuned policies reach the daemon ---------- *)

(* [Tune.tune] is the one way to tune: run in process on the daemon's
   cache directory, its stored policy serves the daemon's [`Auto] runs. *)
let test_tune_then_auto () =
  let dir = tmpdir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let r =
        Xinv_tune.Tune.tune ~cache:`Rw ~cache_dir:dir ~budget:2 ~max_domains:2
          ~input:Wl.Workload.Train (Wl.Registry.find "FDTD")
      in
      Alcotest.(check bool) "trials ran" true (r.Xinv_tune.Tune.trials <> []);
      with_server ~domains:4 ~cache:`Rw ~cache_dir:dir (fun srv ->
          Server.start srv;
          (* a later [`Auto] run resolves the policy the tune stored *)
          let req =
            SReq.make ~policy:`Auto ~cache:`Rw ~input:Wl.Workload.Train
              ~backend:`Native ~technique:"barrier" ~threads:2 (`Name "FDTD")
          in
          (match Server.await (Server.submit srv req) with
          | Proto.Outcome s ->
              Alcotest.(check string) "tuned policy applied" "cached"
                s.Proto.o_policy_source;
              Alcotest.(check bool) "verified" true s.Proto.o_verified
          | m ->
              Alcotest.failf "auto run: %s"
                (Format.asprintf "%a" Proto.pp_server m));
          (* a repeated request is served from the daemon's warm cache *)
          let dreq =
            SReq.make ~cache:`Rw ~input:Wl.Workload.Train ~backend:`Native
              ~technique:"speccross" ~threads:2 (`Name "SYMM")
          in
          ignore (Server.await (Server.submit srv dreq));
          match Server.await (Server.submit srv dreq) with
          | Proto.Outcome s ->
              Alcotest.(check bool) "warm repeat verified" true
                s.Proto.o_verified;
              Alcotest.(check (pair bool int)) "warm repeat only hits" (true, 0)
                (s.Proto.o_cache_hits > 0, s.Proto.o_cache_misses)
          | m ->
              Alcotest.failf "warm repeat: %s"
                (Format.asprintf "%a" Proto.pp_server m)))

(* ---------- socket integration ---------- *)

let wait_for_socket path =
  let deadline = Unix.gettimeofday () +. 5. in
  let rec go () =
    match SClient.with_connection path (fun _ -> ()) with
    | () -> ()
    | exception _ ->
        if Unix.gettimeofday () > deadline then
          Alcotest.fail "daemon socket never came up"
        else begin
          Thread.delay 0.01;
          go ()
        end
  in
  go ()

(* A Run frame whose workload carries the retired tag 1 (a marshalled
   descriptor). *)
let retired_workload_frame () =
  let tag, _ = Wire.decode_frame (Proto.encode_client (Proto.Run sample_request)) in
  let w = Wire.writer () in
  Wire.put_u8 w 1;
  Wire.put_string w "\132\149\166\190 not a workload";
  Wire.encode_frame ~tag (Wire.contents w)

let test_socket_two_clients () =
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "xinv-test-%d.sock" (Unix.getpid ()))
  in
  let srv =
    Server.create { Server.default_config with Server.domains = 2 }
  in
  let daemon = Thread.create (fun () -> Server.serve srv ~socket) () in
  wait_for_socket socket;
  let failures = Mutex.create () and failed = ref [] in
  let client name reqs =
    Thread.create
      (fun () ->
        SClient.with_connection socket (fun fd ->
            List.iter
              (fun req ->
                match SClient.request fd (Proto.Run req) with
                | Proto.Outcome s when s.Proto.o_verified -> ()
                | m ->
                    Mutex.lock failures;
                    failed :=
                      Printf.sprintf "%s: %s" name
                        (Format.asprintf "%a" Proto.pp_server m)
                      :: !failed;
                    Mutex.unlock failures)
              reqs))
      ()
  in
  let alice =
    client "alice"
      (List.init 5 (fun i ->
           if i mod 2 = 0 then sim_req ~tenant:"alice" ()
           else native_req ~tenant:"alice" ()))
  in
  let bob =
    client "bob"
      (List.init 5 (fun i ->
           sim_req ~tenant:"bob"
             ~priority:(if i mod 2 = 0 then `High else `Normal)
             ()))
  in
  Thread.join alice;
  Thread.join bob;
  Alcotest.(check (list string)) "no client failures" [] !failed;
  (* liveness + stats over the same socket *)
  (match SClient.call ~socket Proto.Ping with
  | Proto.Pong p ->
      Alcotest.(check int) "one pool over the socket" 1 p.Proto.p_pool_creates;
      Alcotest.(check int) "served" 10 p.Proto.p_served
  | m -> Alcotest.failf "ping: %s" (Format.asprintf "%a" Proto.pp_server m));
  (match SClient.call ~socket Proto.Stats with
  | Proto.Stats_reply snap ->
      Alcotest.(check (option int)) "alice completed" (Some 5)
        (Xinv_obs.Snapshot.counter snap "serve.tenant.alice.completed");
      Alcotest.(check (option int)) "bob completed" (Some 5)
        (Xinv_obs.Snapshot.counter snap "serve.tenant.bob.completed")
  | m -> Alcotest.failf "stats: %s" (Format.asprintf "%a" Proto.pp_server m));
  (* a garbage frame gets a typed rejection, not a hang or a crash *)
  (match
     SClient.with_connection socket (fun fd ->
         let junk = String.make 64 'Z' in
         ignore (Unix.write_substring fd junk 0 (String.length junk));
         Proto.recv_server fd)
   with
  | Proto.Rejected (Proto.Bad_request _) -> ()
  | m -> Alcotest.failf "garbage: %s" (Format.asprintf "%a" Proto.pp_server m));
  (* a Run frame carrying the retired workload tag 1 (a marshalled
     descriptor) fails to decode, so it is never unmarshalled or submitted;
     it gets a typed rejection and the daemon keeps answering *)
  let frame = retired_workload_frame () in
  (match Proto.decode_client frame with
  | _ -> Alcotest.fail "workload tag 1 decoded"
  | exception Wire.Error (Wire.Bad_payload _) -> ());
  (match
     SClient.with_connection socket (fun fd ->
         ignore (Unix.write_substring fd frame 0 (String.length frame));
         Proto.recv_server fd)
   with
  | Proto.Rejected (Proto.Bad_request _) -> ()
  | m ->
      Alcotest.failf "workload tag 1: %s" (Format.asprintf "%a" Proto.pp_server m));
  (match SClient.call ~socket Proto.Ping with
  | Proto.Pong p -> Alcotest.(check int) "nothing submitted" 10 p.Proto.p_served
  | m ->
      Alcotest.failf "ping after workload tag 1: %s"
        (Format.asprintf "%a" Proto.pp_server m));
  (* a client that vanishes mid-request must not kill the daemon: its
     parked job is cancelled, and the reply that would have hit the dead
     socket (SIGPIPE, fatal by default) is dropped *)
  let ghost = SClient.connect socket in
  Proto.send_client ghost
    (Proto.Run (native_req ~tenant:"ghost" ~fault:"poison@1:0" ()));
  Thread.delay 0.05 (* let the run start and park on the poisoned cond *);
  Unix.close ghost;
  let deadline = Unix.gettimeofday () +. 5. in
  while Server.served srv < 11 && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  Alcotest.(check int) "ghost job finished after disconnect" 11
    (Server.served srv);
  (match SClient.call ~socket Proto.Ping with
  | Proto.Pong _ -> ()
  | m ->
      Alcotest.failf "ping after ghost disconnect: %s"
        (Format.asprintf "%a" Proto.pp_server m));
  (* an idle keep-alive connection (no request in flight) must not stall
     the shutdown below; the daemon EOFs it while exiting *)
  let idle = SClient.connect socket in
  (* clean shutdown: ack, socket unlinked, accept loop exits *)
  (match SClient.call ~socket Proto.Shutdown with
  | Proto.Shutdown_ack { served } ->
      Alcotest.(check int) "ack served count" 11 served
  | m ->
      Alcotest.failf "shutdown: %s" (Format.asprintf "%a" Proto.pp_server m));
  Thread.join daemon;
  (match Proto.recv_server idle with
  | exception Wire.Error Wire.Closed -> ()
  | exception _ -> ()
  | m ->
      Alcotest.failf "idle connection outlived shutdown: %s"
        (Format.asprintf "%a" Proto.pp_server m));
  Unix.close idle;
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists socket);
  Alcotest.(check int) "pool never churned" 1 (Server.pool_creates srv)

(* ---------- socket wake-up: fd hygiene and back-to-back replies ---------- *)

(* Runs [f srv socket] against an in-process daemon, then shuts it down
   over the socket and joins it. *)
let with_daemon tag f =
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "xinv-test-%s-%d.sock" tag (Unix.getpid ()))
  in
  let srv = Server.create { Server.default_config with Server.domains = 2 } in
  let daemon = Thread.create (fun () -> Server.serve srv ~socket) () in
  wait_for_socket socket;
  Fun.protect
    ~finally:(fun () ->
      (try ignore (SClient.call ~socket Proto.Shutdown) with _ -> ());
      Thread.join daemon)
    (fun () -> f srv socket)

let open_fds () = Array.length (Sys.readdir "/proc/self/fd")

(* Every connection owns a self-pipe for its wake-ups; 100 connections,
   a fifth of them hanging up mid-request on a parked native run, must
   leave no fd behind once the daemon has shut down. *)
let test_socket_fd_hygiene () =
  if not (Sys.file_exists "/proc/self/fd") then ()
  else begin
    let before = open_fds () in
    with_daemon "fds" (fun srv socket ->
        for i = 1 to 100 do
          if i mod 5 = 0 then begin
            let ghost = SClient.connect socket in
            Proto.send_client ghost
              (Proto.Run (native_req ~tenant:"ghost" ~fault:"poison@1:0" ()));
            Thread.delay 0.05 (* let the run start and park *);
            Unix.close ghost
          end
          else
            match SClient.call ~socket (Proto.Run (sim_req ())) with
            | Proto.Outcome s when s.Proto.o_verified -> ()
            | m ->
                Alcotest.failf "cycle %d: %s" i
                  (Format.asprintf "%a" Proto.pp_server m)
        done;
        let deadline = Unix.gettimeofday () +. 10. in
        while Server.served srv < 100 && Unix.gettimeofday () < deadline do
          Thread.delay 0.01
        done;
        Alcotest.(check int) "every job finished" 100 (Server.served srv));
    let after = open_fds () in
    if abs (after - before) > 2 then
      Alcotest.failf "fds before the daemon %d, after shutdown %d" before after
  end

(* 200 requests back to back on one connection: unknown-workload
   rejections the scheduler finishes almost at once (often before the
   connection has armed its wake-up) and a few sim runs, sometimes three
   frames pipelined.  Every request must get exactly its own reply, in
   order, with stale wake bytes from earlier requests harmless. *)
let test_socket_back_to_back () =
  with_daemon "b2b" (fun _ socket ->
      let n = 200 in
      let reqs =
        Array.init n (fun i ->
            if i mod 40 = 20 then sim_req ()
            else sim_req ~workload:(Printf.sprintf "NO_SUCH_%d" i) ())
      in
      let expect i m =
        match m with
        | Proto.Outcome s when i mod 40 = 20 ->
            Alcotest.(check string) "sim reply" "FDTD" s.Proto.o_workload;
            Alcotest.(check bool) "sim verified" true s.Proto.o_verified
        | Proto.Rejected (Proto.Unknown_workload w) when i mod 40 <> 20 ->
            Alcotest.(check string) "own rejection"
              (Printf.sprintf "NO_SUCH_%d" i) w
        | m ->
            Alcotest.failf "request %d: %s" i
              (Format.asprintf "%a" Proto.pp_server m)
      in
      let t0 = Unix.gettimeofday () in
      SClient.with_connection socket (fun fd ->
          Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
          let rec go i =
            if i < n then begin
              let k = if i mod 7 = 3 then min 3 (n - i) else 1 in
              for j = i to i + k - 1 do
                Proto.send_client fd (Proto.Run reqs.(j))
              done;
              for j = i to i + k - 1 do
                expect j (Proto.recv_server fd)
              done;
              go (i + k)
            end
          in
          go 0);
      let dt = Unix.gettimeofday () -. t0 in
      if dt > 10. then Alcotest.failf "200 round trips took %.1f s" dt)

(* A tune frame as older clients wrote it (tag 5, JACOBI, budget 4, at
   most 2 domains).  Daemon-side tuning is retired, so the tag decodes to
   [Bad_tag 5] and the daemon answers it with one typed rejection, then
   keeps serving on its one pool. *)
let retired_tune_frame =
  "5853525601050000002c5994ea23e6a6ce4ae9763b3d5f95c270000000064a41434f4249\
   00000000040000002a01000000020000000468696c6c010000000764656661756c74"

let test_retired_tune_frame () =
  let frame = of_hex retired_tune_frame in
  (match Proto.decode_client frame with
  | _ -> Alcotest.fail "tag 5 decoded"
  | exception Wire.Error (Wire.Bad_tag 5) -> ());
  with_daemon "tune" (fun srv socket ->
      SClient.with_connection socket (fun fd ->
          ignore (Unix.write_substring fd frame 0 (String.length frame));
          (match Proto.recv_server fd with
          | Proto.Rejected (Proto.Bad_request _) -> ()
          | m -> Alcotest.failf "tag 5: %s" (Format.asprintf "%a" Proto.pp_server m));
          match Proto.recv_server fd with
          | exception Wire.Error Wire.Closed -> ()
          | m ->
              Alcotest.failf "second reply to tag 5: %s"
                (Format.asprintf "%a" Proto.pp_server m));
      (match
         SClient.call ~socket
           (Proto.Run
              (SReq.make ~backend:`Native ~technique:"domore" ~threads:2
                 ~input:Wl.Workload.Train (`Name "SYMM")))
       with
      | Proto.Outcome s -> Alcotest.(check bool) "SYMM verified" true s.Proto.o_verified
      | m -> Alcotest.failf "SYMM: %s" (Format.asprintf "%a" Proto.pp_server m));
      Alcotest.(check int) "one pool" 1 (Server.pool_creates srv))

(* One context for DOMORE or SPECCROSS: the daemon replies [Failed] with
   the refusal [run_request] raises in process, on both backends. *)
let test_one_context_submit () =
  with_server ~domains:2 (fun srv ->
      Server.start srv;
      List.iter
        (fun (backend, b) ->
          List.iter
            (fun technique ->
              let label =
                Printf.sprintf "%s/%s" (Cx.technique_name technique)
                  (match backend with `Sim -> "sim" | `Native -> "native")
              in
              let raised =
                match
                  Cx.run_request
                  @@ Cx.Request.make ~backend:b ~input:Wl.Workload.Train ~technique
                       ~threads:1 (Wl.Registry.find "SYMM")
                with
                | _ -> Alcotest.failf "%s: ran in-process" label
                | exception Failure m -> m
              in
              let req =
                SReq.make ~backend ~technique:(Cx.technique_name technique) ~threads:1
                  ~input:Wl.Workload.Train (`Name "SYMM")
              in
              match Server.await (Server.submit srv req) with
              | Proto.Failed why -> Alcotest.(check string) label raised why
              | m -> Alcotest.failf "%s: %s" label (Format.asprintf "%a" Proto.pp_server m))
            [ Cx.Domore; Cx.Speccross ])
        [ (`Sim, `Sim None); (`Native, `Native Cx.native_defaults) ])

(* ---------- verified submits reuse the sequential reference ---------- *)

let test_submits_reuse_reference () =
  with_server ~domains:1 (fun srv ->
      Server.start srv;
      let n = 3 in
      List.iter
        (fun backend ->
          for _ = 1 to n do
            let req =
              SReq.make ~backend ~technique:"barrier" ~threads:2
                ~input:Wl.Workload.Train (`Name "SYMM")
            in
            match Server.await (Server.submit srv req) with
            | Proto.Outcome s ->
                Alcotest.(check bool) "verified" true s.Proto.o_verified;
                Alcotest.(check bool) "reports a baseline" true
                  (s.Proto.o_seq_cost > 0.)
            | m -> Alcotest.failf "%s" (Format.asprintf "%a" Proto.pp_server m)
          done)
        [ `Sim; `Native ];
      (* per backend, at most the first submit runs a baseline *)
      let reused =
        (Xinv_obs.Metrics.counter (Server.metrics srv) "serve.baseline.reused")
          .Xinv_obs.Metrics.c_value
      in
      Alcotest.(check bool)
        (Printf.sprintf "%d of %d submits reused the reference" reused (2 * n))
        true
        (reused >= 2 * (n - 1) && reused <= 2 * n))

let suite =
  [
    Alcotest.test_case "wire primitives round-trip" `Quick test_wire_prims;
    Alcotest.test_case "frame round-trip" `Quick test_frame_roundtrip;
    Alcotest.test_case "protocol messages round-trip" `Quick
      test_protocol_roundtrip;
    Alcotest.test_case "decoders reject the other side's tags" `Quick
      test_protocol_wrong_side;
    QCheck_alcotest.to_alcotest prop_request_roundtrip;
    Alcotest.test_case "every truncation is a typed error" `Quick
      test_truncation;
    Alcotest.test_case "every bit flip is detected" `Quick test_bitflips;
    QCheck_alcotest.to_alcotest prop_garbage;
    Alcotest.test_case "fair: priority then tenant rotation" `Quick
      test_fair_priority_and_rotation;
    Alcotest.test_case "fair: bounded capacity" `Quick test_fair_capacity;
    Alcotest.test_case "fair: remove withdraws a queued item" `Quick
      test_fair_remove;
    Alcotest.test_case "admission control and shutdown rejection" `Quick
      test_admission_control;
    Alcotest.test_case "malformed requests are typed rejections" `Quick
      test_bad_requests;
    Alcotest.test_case "queued deadline expiry rejects" `Quick
      test_deadline_missed_in_queue;
    Alcotest.test_case "cancel withdraws a queued job" `Quick
      test_cancel_queued;
    Alcotest.test_case "cancel unwinds one cohort, pool survives" `Quick
      test_cancel_running_pool_survives;
    Alcotest.test_case "submitted runs match in-process run_request" `Slow
      test_differential_submit_vs_inprocess;
    Alcotest.test_case "1000 queued runs on one shared pool" `Slow
      test_thousand_requests_one_pool;
    Alcotest.test_case "tune request feeds later auto runs" `Slow
      test_tune_then_auto;
    Alcotest.test_case "two clients over the socket" `Slow
      test_socket_two_clients;
    Alcotest.test_case "make defaults match Crossinv.Request.make" `Quick
      test_make_defaults_match_core;
    Alcotest.test_case "no fd leaks across 100 socket connections" `Slow
      test_socket_fd_hygiene;
    Alcotest.test_case "back-to-back socket replies arrive in order" `Slow
      test_socket_back_to_back;
    QCheck_alcotest.to_alcotest prop_resolves_like_core;
    Alcotest.test_case "golden run frames resolve as recorded" `Quick
      test_golden_frames;
    Alcotest.test_case "retired tune frame is rejected" `Quick
      test_retired_tune_frame;
    QCheck_alcotest.to_alcotest prop_summary_roundtrip;
    Alcotest.test_case "refused submits match in-process run_request" `Slow
      test_refused_submit_vs_inprocess;
    Alcotest.test_case "one-context submits refused as in process" `Quick
      test_one_context_submit;
    Alcotest.test_case "unverified submit reports no baseline" `Quick
      test_unverified_submit_has_no_baseline;
    Alcotest.test_case "verified submits reuse the sequential reference" `Quick
      test_submits_reuse_reference;
  ]
