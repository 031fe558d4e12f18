(* Micro-benchmarks for the runtime primitives (shadow memory, access
   signatures, DES engine bookkeeping, the dependence profiler), plus a
   semantic fingerprint of a few fixed simulated runs.

   Modes:
     bench_primitives                  print a table of ns/op
     bench_primitives --smoke          run every kernel once at tiny scale
                                       (used by the @bench-smoke alias)
     bench_primitives --raw FILE      append "name ns_per_op" lines to FILE
     bench_primitives --json OUT [--baseline RAWFILE] [--from-raw RAWFILE]
                                       emit the BENCH_*.json document; with a
                                       baseline raw file, include before/after
                                       and speedup per kernel; with --from-raw,
                                       read the candidate numbers from a raw
                                       file instead of re-timing.  Raw files
                                       with repeated lines per kernel (from
                                       alternating appended runs) are merged
                                       by per-kernel minimum, which cancels
                                       slow machine drift
     bench_primitives --fingerprint    print makespan/tasks/checks/misspecs of
                                       fixed DOMORE and SPECCROSS runs (perf
                                       work must keep these bit-identical)

   The kernels go through the stable public API only, so the same driver
   measures any implementation of the primitives. *)

module Rt = Xinv_runtime
module Sim = Xinv_sim

(* ---------- timing harness ---------- *)

(* A kernel runs one fixed-size chunk and returns the number of primitive
   operations it performed.  The harness repeats chunks until [target_s] of
   wall clock elapsed, three times, and keeps the best rate. *)
type kernel = { name : string; chunk : unit -> int }

let time_kernel ?(target_s = 0.25) k =
  ignore (k.chunk ());
  (* warmup *)
  let best = ref infinity in
  for _ = 1 to 3 do
    let ops = ref 0 in
    let t0 = Unix.gettimeofday () in
    let elapsed () = Unix.gettimeofday () -. t0 in
    while elapsed () < target_s do
      ops := !ops + k.chunk ()
    done;
    let ns_per_op = elapsed () *. 1e9 /. float_of_int !ops in
    if ns_per_op < !best then best := ns_per_op
  done;
  !best

(* ---------- shadow-memory kernels ---------- *)

let shadow_note_chunk n () =
  let sh = Rt.Shadow.create ~words:4096 ~workers:4 and deps = Rt.Shadow.Deps.create () in
  for i = 0 to n - 1 do
    let addr = i * 17 land 4095 and tid = i land 3 in
    Rt.Shadow.Deps.clear deps;
    if tid = 0 then Rt.Shadow.note_write_deps sh addr ~tid ~iter:i deps
    else Rt.Shadow.note_read_deps sh addr ~tid ~iter:i deps
  done;
  n

let shadow_reset_chunk rounds fill () =
  let sh = Rt.Shadow.create ~words:fill ~workers:4 and deps = Rt.Shadow.Deps.create () in
  for r = 0 to rounds - 1 do
    for i = 0 to fill - 1 do
      Rt.Shadow.Deps.clear deps;
      Rt.Shadow.note_write_deps sh i ~tid:(r land 3) ~iter:i deps
    done;
    Rt.Shadow.reset sh
  done;
  rounds * fill

(* ---------- signature kernels ---------- *)

let sig_chunk kind adds probes () =
  let a = Rt.Signature.create kind and b = Rt.Signature.create kind in
  for i = 0 to adds - 1 do
    Rt.Signature.add a (i * 13 land 8191);
    Rt.Signature.add b ((i * 29) + 4096 land 8191)
  done;
  for _ = 1 to probes do
    ignore (Rt.Signature.intersects a b)
  done;
  Rt.Signature.merge ~into:a b;
  (2 * adds) + probes + 1

let seg_bounds = Array.init 16 (fun i -> i * 512)

(* ---------- engine kernels ---------- *)

let engine_advance_chunk threads per_thread () =
  let eng = Sim.Engine.create () in
  for _ = 1 to threads do
    ignore
      (Sim.Engine.spawn eng (fun () ->
           for _ = 1 to per_thread do
             Sim.Proc.work 1.
           done))
  done;
  Sim.Engine.run eng;
  threads * per_thread

(* Two threads ping-pong through a pair of monotone cells: per round trip
   each thread advances once, blocks once and is woken once, so an op
   covers two advances, two waits charged at wake-up and four resumes. *)
let engine_suspend_wake_chunk n () =
  let eng = Sim.Engine.create () in
  let ping = Sim.Mono_cell.create ~init:0 () and pong = Sim.Mono_cell.create ~init:0 () in
  ignore
    (Sim.Engine.spawn eng (fun () ->
         for i = 1 to n do
           Sim.Proc.work 1.;
           Sim.Mono_cell.set ping i;
           Sim.Mono_cell.wait_ge pong i
         done));
  ignore
    (Sim.Engine.spawn eng (fun () ->
         for i = 1 to n do
           Sim.Mono_cell.wait_ge ping i;
           Sim.Proc.work 1.;
           Sim.Mono_cell.set pong i
         done));
  Sim.Engine.run eng;
  n

let engine_charge_chunk n () =
  let eng = Sim.Engine.create () in
  let tid = Sim.Engine.spawn eng (fun () -> ()) in
  Sim.Engine.run eng;
  for i = 1 to n do
    Sim.Engine.charge eng tid
      (if i land 1 = 0 then Sim.Category.Work else Sim.Category.Runtime)
      1.0
  done;
  ignore (Sim.Engine.charged eng tid Sim.Category.Work);
  n

(* ---------- dependence profiler ---------- *)

(* One [Profile.run] per chunk over a workload's train input, restored from
   a snapshot first (a blit); an op is one profiled inner iteration. *)
let profile_chunk name =
  let module Ir = Xinv_ir in
  let module Wl = Xinv_workloads in
  let wl = Wl.Registry.find name in
  let p = wl.Wl.Workload.program Wl.Workload.Train in
  let env = wl.Wl.Workload.fresh_env Wl.Workload.Train in
  let init = Ir.Memory.snapshot env.Ir.Env.mem in
  fun () ->
    Ir.Memory.restore ~dst:env.Ir.Env.mem ~src:init;
    (Ir.Profile.run p env).Ir.Profile.total_tasks

(* ---------- end-to-end kernels ---------- *)

(* One complete simulated run per chunk.  These exist to measure the cost of
   the observability layer: the names without a suffix run with observability
   disabled (the default), the [+obs] variants with a live recorder, and the
   overhead section of the JSON report compares the two. *)

let e2e_domore_chunk ?(obs = false) name threads () =
  let module Ir = Xinv_ir in
  let module Wl = Xinv_workloads in
  let wl = Wl.Registry.find name in
  let env = wl.Wl.Workload.fresh_env Wl.Workload.Train in
  let p = wl.Wl.Workload.program Wl.Workload.Train in
  let rec_ = if obs then Some (Xinv_obs.Recorder.create ()) else None in
  (match Ir.Mtcg.generate p env with
  | Ir.Mtcg.Plan plan ->
      let config = Xinv_domore.Domore.default_config ~workers:(threads - 1) in
      ignore (Xinv_domore.Domore.run ~config ?obs:rec_ ~plan p env)
  | Ir.Mtcg.Inapplicable r -> failwith r);
  1

let e2e_speccross_chunk ?(obs = false) name threads () =
  let module Ir = Xinv_ir in
  let module Wl = Xinv_workloads in
  let module Sp = Xinv_speccross in
  let wl = Wl.Registry.find name in
  let env = wl.Wl.Workload.fresh_env Wl.Workload.Train in
  let p = wl.Wl.Workload.program Wl.Workload.Train in
  let rec_ = if obs then Some (Xinv_obs.Recorder.create ()) else None in
  let cfg =
    {
      (Sp.Runtime.default_config ~workers:(threads - 1)) with
      Sp.Runtime.sig_kind = Rt.Signature.Segmented (Ir.Memory.bounds env.Ir.Env.mem);
      spec_distance = 4 * Ir.Program.total_iterations p env / Ir.Program.invocations p;
    }
  in
  ignore (Sp.Runtime.run ~config:cfg ?obs:rec_ p env);
  1

(* ---------- kernel table ---------- *)

let kernels ~smoke =
  let s n tiny = if smoke then tiny else n in
  [
    { name = "shadow.note_mixed"; chunk = shadow_note_chunk (s 100_000 256) };
    { name = "shadow.fill_reset"; chunk = shadow_reset_chunk (s 64 2) (s 10_000 64) };
    { name = "signature.range"; chunk = sig_chunk Rt.Signature.Range (s 2_000 16) (s 64 2) };
    {
      name = "signature.segmented";
      chunk = sig_chunk (Rt.Signature.Segmented seg_bounds) (s 2_000 16) (s 64 2);
    };
    {
      name = "signature.bloom";
      chunk =
        sig_chunk (Rt.Signature.Bloom { bits = 4096; hashes = 3 }) (s 2_000 16) (s 64 2);
    };
    { name = "signature.exact"; chunk = sig_chunk Rt.Signature.Exact (s 2_000 16) (s 64 2) };
    { name = "engine.spawn_advance"; chunk = engine_advance_chunk 4 (s 2_500 8) };
    { name = "engine.suspend_wake"; chunk = engine_suspend_wake_chunk (s 2_500 8) };
    { name = "engine.charge"; chunk = engine_charge_chunk (s 100_000 64) };
    { name = "profile.run_symm_train"; chunk = profile_chunk "SYMM" };
    { name = "profile.run_jacobi_train"; chunk = profile_chunk "JACOBI" };
    { name = "e2e.domore_cg"; chunk = e2e_domore_chunk "CG" 8 };
    { name = "e2e.speccross_jacobi"; chunk = e2e_speccross_chunk "JACOBI" 8 };
    { name = "e2e.domore_cg+obs"; chunk = e2e_domore_chunk ~obs:true "CG" 8 };
    {
      name = "e2e.speccross_jacobi+obs";
      chunk = e2e_speccross_chunk ~obs:true "JACOBI" 8;
    };
  ]

(* ---------- semantic fingerprint ---------- *)

let fingerprint () =
  let module Ir = Xinv_ir in
  let module Wl = Xinv_workloads in
  let module Sp = Xinv_speccross in
  let train = Wl.Workload.Train in
  let runs = ref [] in
  let record name (r : Xinv_parallel.Run.t) =
    runs :=
      (name, r.Xinv_parallel.Run.makespan, r.Xinv_parallel.Run.tasks,
       r.Xinv_parallel.Run.checks, r.Xinv_parallel.Run.misspecs)
      :: !runs
  in
  let domore name threads =
    let wl = Wl.Registry.find name in
    let env = wl.Wl.Workload.fresh_env train in
    let p = wl.Wl.Workload.program train in
    match Ir.Mtcg.generate p env with
    | Ir.Mtcg.Plan plan ->
        let config = Xinv_domore.Domore.default_config ~workers:(threads - 1) in
        record ("domore." ^ name) (Xinv_domore.Domore.run ~config ~plan p env)
    | Ir.Mtcg.Inapplicable r -> failwith r
  in
  let speccross name threads kind =
    let wl = Wl.Registry.find name in
    let env = wl.Wl.Workload.fresh_env train in
    let p = wl.Wl.Workload.program train in
    let sig_kind =
      match kind with
      | `Segmented -> Rt.Signature.Segmented (Ir.Memory.bounds env.Ir.Env.mem)
      | `Range -> Rt.Signature.Range
    in
    let cfg =
      {
        (Sp.Runtime.default_config ~workers:(threads - 1)) with
        Sp.Runtime.sig_kind;
        spec_distance = 4 * Ir.Program.total_iterations p env / Ir.Program.invocations p;
      }
    in
    record ("speccross." ^ name) (Sp.Runtime.run ~config:cfg p env)
  in
  domore "CG" 8;
  domore "BLACKSCHOLES" 8;
  speccross "JACOBI" 8 `Segmented;
  speccross "FDTD" 8 `Range;
  List.rev !runs

let print_fingerprint () =
  List.iter
    (fun (name, makespan, tasks, checks, misspecs) ->
      Printf.printf "%-24s makespan %.3f tasks %d checks %d misspecs %d\n" name makespan
        tasks checks misspecs)
    (fingerprint ())

(* ---------- output ---------- *)

(* Raw files may hold several lines per kernel (repeated --raw runs append);
   the merged value is the per-kernel minimum, so alternating baseline and
   candidate runs cancels slow machine drift. *)
let read_raw_ordered path =
  let ic = open_in path in
  let order = ref [] and tbl = Hashtbl.create 16 in
  (try
     while true do
       let line = input_line ic in
       match String.split_on_char ' ' (String.trim line) with
       | [ name; ns ] ->
           let v = float_of_string ns in
           (match Hashtbl.find_opt tbl name with
           | None ->
               order := name :: !order;
               Hashtbl.replace tbl name v
           | Some prev -> if v < prev then Hashtbl.replace tbl name v)
       | _ -> ()
     done
   with End_of_file -> ());
  close_in ic;
  List.rev_map (fun name -> (name, Hashtbl.find tbl name)) !order

let read_baseline path =
  let tbl = Hashtbl.create 16 in
  List.iter (fun (name, v) -> Hashtbl.replace tbl name v) (read_raw_ordered path);
  tbl

let emit_json ~out ~baseline results fp =
  let oc = open_out out in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"schema\": \"xinv-bench/1\",\n";
  Buffer.add_string b "  \"unit\": \"ns_per_op\",\n";
  Buffer.add_string b "  \"results\": [\n";
  let n = List.length results in
  List.iteri
    (fun i (name, ns) ->
      let before =
        match baseline with
        | Some tbl -> Hashtbl.find_opt tbl name
        | None -> None
      in
      Buffer.add_string b "    {";
      Buffer.add_string b (Printf.sprintf "\"name\": %S" name);
      (match before with
      | Some b0 ->
          Buffer.add_string b
            (Printf.sprintf ", \"before_ns_per_op\": %.2f, \"after_ns_per_op\": %.2f, \"speedup\": %.2f"
               b0 ns (b0 /. ns))
      | None -> Buffer.add_string b (Printf.sprintf ", \"ns_per_op\": %.2f" ns));
      Buffer.add_string b (if i = n - 1 then "}\n" else "},\n"))
    results;
  Buffer.add_string b "  ],\n";
  (* Observability overhead: for every kernel with a "+obs" twin, compare the
     disabled path against the pre-observability baseline (must stay within
     noise) and the enabled path against the disabled one (the price of a
     live recorder). *)
  let overheads =
    List.filter_map
      (fun (name, ns_on) ->
        let l = String.length name in
        if l > 4 && String.sub name (l - 4) 4 = "+obs" then
          let base = String.sub name 0 (l - 4) in
          match List.assoc_opt base results with
          | Some ns_off -> Some (base, ns_off, ns_on)
          | None -> None
        else None)
      results
  in
  if overheads <> [] then begin
    Buffer.add_string b "  \"obs_overhead\": [\n";
    let m = List.length overheads in
    List.iteri
      (fun i (base, ns_off, ns_on) ->
        let vs_baseline =
          match baseline with
          | Some tbl -> (
              match Hashtbl.find_opt tbl base with
              | Some b0 ->
                  Printf.sprintf ", \"disabled_vs_baseline_pct\": %.2f"
                    (100. *. ((ns_off /. b0) -. 1.))
              | None -> "")
          | None -> ""
        in
        Buffer.add_string b
          (Printf.sprintf
             "    {\"kernel\": %S, \"disabled_ns_per_op\": %.2f, \
              \"enabled_ns_per_op\": %.2f, \"enabled_overhead_pct\": %.2f%s}%s\n"
             base ns_off ns_on
             (100. *. ((ns_on /. ns_off) -. 1.))
             vs_baseline
             (if i = m - 1 then "" else ",")))
      overheads;
    Buffer.add_string b "  ],\n"
  end;
  Buffer.add_string b "  \"semantics\": [\n";
  let m = List.length fp in
  List.iteri
    (fun i (name, makespan, tasks, checks, misspecs) ->
      Buffer.add_string b
        (Printf.sprintf
           "    {\"run\": %S, \"makespan\": %.3f, \"tasks\": %d, \"checks\": %d, \"misspecs\": %d}%s\n"
           name makespan tasks checks misspecs
           (if i = m - 1 then "" else ","));
      ())
    fp;
  Buffer.add_string b "  ]\n}\n";
  Buffer.add_string b "";
  output_string oc (Buffer.contents b);
  close_out oc

let () =
  let args = Array.to_list Sys.argv in
  let has f = List.mem f args in
  let opt f =
    let rec go = function
      | a :: v :: _ when a = f -> Some v
      | _ :: rest -> go rest
      | [] -> None
    in
    go args
  in
  if has "--smoke" then begin
    List.iter
      (fun k ->
        let ops = k.chunk () in
        Printf.printf "smoke %-24s ok (%d ops)\n" k.name ops)
      (kernels ~smoke:true);
    print_string "bench smoke: all kernels ran\n"
  end
  else if has "--fingerprint" then print_fingerprint ()
  else begin
    (* Fail on a bad --baseline path before the multi-minute timing run, not
       at JSON-emit time. *)
    let baseline = Option.map read_baseline (opt "--baseline") in
    let results =
      match opt "--from-raw" with
      | Some path -> read_raw_ordered path
      | None -> List.map (fun k -> (k.name, time_kernel k)) (kernels ~smoke:false)
    in
    List.iter (fun (name, ns) -> Printf.printf "%-24s %10.1f ns/op\n%!" name ns) results;
    (match opt "--raw" with
    | Some path ->
        let oc = open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 path in
        List.iter (fun (name, ns) -> Printf.fprintf oc "%s %.4f\n" name ns) results;
        close_out oc
    | None -> ());
    match opt "--json" with
    | Some out ->
        let fp = fingerprint () in
        emit_json ~out ~baseline results fp;
        Printf.printf "wrote %s\n" out
    | None -> ()
  end
