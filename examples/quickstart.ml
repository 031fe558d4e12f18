(* Quickstart: run a bundled benchmark under every applicable technique and
   compare against sequential execution.

     dune exec examples/quickstart.exe
*)

module Cx = Xinv_core.Crossinv
module Wl = Xinv_workloads

let () =
  let wl = Wl.Registry.find "CG" in
  Printf.printf "workload: %s (%s, function %s)\n\n" wl.Wl.Workload.name
    wl.Wl.Workload.suite wl.Wl.Workload.func;
  List.iter
    (fun technique ->
      match Cx.applicable technique wl with
      | Error reason ->
          Printf.printf "%-12s inapplicable: %s\n" (Cx.technique_name technique) reason
      | Ok () ->
          let o = Cx.run_request @@ Cx.Request.make ~technique ~threads:24 wl in
          Printf.printf "%-12s %6.2fx speedup on 24 simulated cores (verified: %b)\n"
            (Cx.technique_name technique) (Option.get o.Cx.speedup) o.Cx.verified)
    [ Cx.Barrier; Cx.Doacross; Cx.Dswp; Cx.Domore; Cx.Speccross ];
  print_newline ();
  (* The same loop nest on the conflict-free sparsity used for the
     speculative experiments. *)
  let o = Cx.run_request @@ Cx.Request.make ~input:Wl.Workload.Ref_spec ~technique:Cx.Speccross ~threads:24 wl in
  Printf.printf
    "speccross on the banded (conflict-free) input: %.2fx — barriers were pure waste\n"
    (Option.get o.Cx.speedup);
  print_newline ();
  (* The same entry point runs on real OCaml 5 domains: select the native
     backend.  Costs come back as wall-clock time instead of simulated
     cycles (the sequential baseline is there because verification is on
     by default; a request with ~verify:false runs once and has none), and
     the run is watchdog-bounded — a failure (or an armed
     --inject fault) cancels the cohort and degrades to a weaker technique
     instead of hanging. *)
  let n =
    Cx.run_request @@ Cx.Request.make
      ~backend:(`Native { Cx.native_defaults with Cx.deadline_ms = Some 60_000. })
      ~input:Wl.Workload.Train ~technique:Cx.Domore ~threads:2 wl
  in
  Printf.printf "domore on 2 real domains: %s vs sequential %s (verified: %b)\n"
    (Cx.cost_to_string n.Cx.cost)
    (Cx.cost_to_string (Option.get n.Cx.seq_cost))
    n.Cx.verified;
  List.iter
    (fun (s : Cx.degrade_step) ->
      Printf.printf "  degraded %s -> %s: %s\n"
        (Cx.technique_name s.Cx.d_from)
        (Cx.technique_name s.Cx.d_to)
        s.Cx.d_reason)
    n.Cx.degraded
