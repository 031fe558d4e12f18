module Policy = Xinv_cache.Policy
module Core = Xinv_core
module Wl = Xinv_workloads
module Prng = Xinv_util.Prng

type axes = {
  backends : Policy.backend list;
  techniques : string list;
  domains : int list;
  widths : (string * int list) list;
  grains : int list;
  batches : int list;
  sigs : Policy.sig_kind list;
  spec_distances : int option list;
  epochs : int list;
}

let default_axes ?max_domains (wl : Wl.Workload.t) =
  let cores =
    match max_domains with
    | Some n -> Stdlib.max 1 n
    | None -> Domain.recommended_domain_count ()
  in
  let domains = List.filter (fun d -> d <= cores) [ 1; 2; 4 ] in
  let widths =
    List.filter_map
      (fun t ->
        match
          List.filter
            (fun d -> Core.Crossinv.applicable ~backend:`Native ~threads:d t wl = Ok ())
            domains
        with
        | [] -> None
        | ds -> Some (Core.Crossinv.technique_name t, ds))
      Core.Crossinv.[ Sequential; Barrier; Domore; Domore_dup; Speccross ]
  in
  {
    backends = [ `Native ];
    techniques = List.map fst widths;
    domains;
    widths;
    grains = [ 1; 4; 16; 64 ];
    batches = [ 1; 32; 128 ];
    sigs = [ `Segmented; `Range; `Bloom ];
    spec_distances = [ None; Some 4; Some 16; Some 64 ];
    epochs = [ 250; 1000; 4000 ];
  }

let runs a (p : Policy.t) =
  match List.assoc_opt p.Policy.technique a.widths with
  | Some ds -> List.mem p.Policy.domains ds
  | None -> false

let size a =
  List.length a.backends * List.length a.techniques * List.length a.domains
  * List.length a.grains * List.length a.batches * List.length a.sigs
  * List.length a.spec_distances * List.length a.epochs

let canon (p : Policy.t) =
  let d = Policy.default in
  match p.Policy.technique with
  | "sequential" ->
      {
        p with
        Policy.domains = 1;
        grain = d.Policy.grain;
        batch = d.Policy.batch;
        sig_kind = d.Policy.sig_kind;
        spec_distance = None;
        epoch_size = d.Policy.epoch_size;
      }
  | "barrier" ->
      (* The barrier engine has no publish protocol, signatures or
         checkpoints; only domains and grain are live. *)
      {
        p with
        Policy.batch = d.Policy.batch;
        sig_kind = d.Policy.sig_kind;
        spec_distance = None;
        epoch_size = d.Policy.epoch_size;
      }
  | "domore" | "domore-dup" ->
      {
        p with
        Policy.sig_kind = d.Policy.sig_kind;
        spec_distance = None;
        epoch_size = d.Policy.epoch_size;
      }
  | "speccross" ->
      (* SPECCROSS dispatches speculative blocks by grain; its workers
         batch checking requests at a fixed factor, so the batch axis
         stays DOMORE's. *)
      { p with Policy.batch = d.Policy.batch }
  | _ -> p

let pick rng l = List.nth l (Prng.int rng (List.length l))

let random rng a =
  let technique = pick rng a.techniques in
  canon
    {
      Policy.backend = pick rng a.backends;
      technique;
      domains = pick rng (List.assoc technique a.widths);
      grain = pick rng a.grains;
      batch = pick rng a.batches;
      sig_kind = pick rng a.sigs;
      spec_distance = pick rng a.spec_distances;
      epoch_size = pick rng a.epochs;
    }

let dedup ps =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun p ->
      let k = Policy.key p in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.add seen k ();
        true
      end)
    ps

let neighbours a (p : Policy.t) =
  let p = canon p in
  let per_axis =
    [
      List.map (fun v -> { p with Policy.technique = v }) a.techniques;
      List.map (fun v -> { p with Policy.domains = v }) a.domains;
      List.map (fun v -> { p with Policy.grain = v }) a.grains;
      List.map (fun v -> { p with Policy.batch = v }) a.batches;
      List.map (fun v -> { p with Policy.sig_kind = v }) a.sigs;
      List.map (fun v -> { p with Policy.spec_distance = v }) a.spec_distances;
      List.map (fun v -> { p with Policy.epoch_size = v }) a.epochs;
    ]
  in
  List.concat_map (List.map canon) per_axis
  |> dedup
  |> List.filter (fun q -> runs a q && not (Policy.equal q p))

let seeds a =
  dedup
    (List.map
       (fun (t, ds) ->
         let widest = List.fold_left Stdlib.max 1 ds in
         canon
           { Policy.default with Policy.technique = t; domains = widest; grain = 16 })
       a.widths)
