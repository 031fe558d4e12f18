module Wl = Xinv_workloads
module Cx = Xinv_core.Crossinv

let threads_axis = [ 2; 4; 6; 8; 10; 12; 14; 16; 18; 20; 22; 24 ]

let speedup_at ?(input = Wl.Workload.Ref) ?checkpoint_every ?sig_kind wl technique
    threads =
  let o =
    Cx.run_request
    @@ Cx.Request.make ?checkpoint_every ?sig_kind ~input ~technique ~threads wl
  in
  if not o.Cx.verified then
    failwith
      (Printf.sprintf "%s under %s with %d threads diverged from sequential (%d cells)"
         wl.Wl.Workload.name (Cx.technique_name technique) threads
         (List.length o.Cx.mismatches));
  o

let speedup (o : Cx.outcome) =
  match o.Cx.speedup with
  | Some s -> s
  | None -> invalid_arg "Common.speedup: the run measured no sequential baseline"

type series = { label : string; points : (int * float) list }

let sweep ?input ~label wl technique =
  {
    label;
    points =
      List.map
        (fun n -> (n, speedup (speedup_at ?input wl technique n)))
        threads_axis;
  }

let render_series ~title series =
  let header = "threads" :: List.map (fun s -> s.label) series in
  let rows =
    List.map
      (fun n ->
        string_of_int n
        :: List.map
             (fun s ->
               match List.assoc_opt n s.points with
               | Some v -> Xinv_util.Tab.fmt_speedup v
               | None -> "-")
             series)
      threads_axis
  in
  Printf.sprintf "%s\n%s" title (Xinv_util.Tab.render ~header rows)

let spec_input (wl : Wl.Workload.t) =
  if String.equal wl.Wl.Workload.name "CG" then Wl.Workload.Ref_spec else Wl.Workload.Ref
