module Cx = Xinv_core.Crossinv
module Wl = Xinv_workloads

type workload = [ `Name of string ]

type t = {
  workload : workload;
  input : Wl.Workload.input;
  backend : [ `Sim | `Native ];
  technique : string;
  threads : int;
  policy : [ `Fixed | `Auto ];
  grain : int;
  batch : int;
  sig_kind : [ `Range | `Segmented | `Bloom | `Exact ] option;
  spec_distance : int option;
  checkpoint_every : int;
  verify : bool;
  cache : [ `Off | `Ro | `Rw ];
  fault : string option;
  deadline_ms : float option;
  priority : [ `High | `Normal ];
  tenant : string;
}

let make ?(input = Wl.Workload.Ref) ?(backend = `Sim)
    ?(technique = "sequential") ?(threads = 1) ?(policy = `Fixed)
    ?(grain = Cx.native_defaults.Cx.grain) ?(batch = Cx.native_defaults.Cx.batch)
    ?sig_kind ?spec_distance ?(checkpoint_every = 1000)
    ?(verify = true) ?(cache = `Off) ?fault ?deadline_ms ?(priority = `Normal)
    ?(tenant = "default") workload =
  {
    workload;
    input;
    backend;
    technique;
    threads;
    policy;
    grain;
    batch;
    sig_kind;
    spec_distance;
    checkpoint_every;
    verify;
    cache;
    fault;
    deadline_ms;
    priority;
    tenant;
  }

(* ---- codec ---- *)

let input_tag = function
  | Wl.Workload.Train -> 0
  | Wl.Workload.Train_spec -> 1
  | Wl.Workload.Ref -> 2
  | Wl.Workload.Ref_spec -> 3

let input_of_tag = function
  | 0 -> Wl.Workload.Train
  | 1 -> Wl.Workload.Train_spec
  | 2 -> Wl.Workload.Ref
  | 3 -> Wl.Workload.Ref_spec
  | n -> raise (Wire.Error (Wire.Bad_payload (Printf.sprintf "input %d" n)))

let sig_tag = function `Range -> 0 | `Segmented -> 1 | `Bloom -> 2 | `Exact -> 3

let sig_of_tag = function
  | 0 -> `Range
  | 1 -> `Segmented
  | 2 -> `Bloom
  | 3 -> `Exact
  | n -> raise (Wire.Error (Wire.Bad_payload (Printf.sprintf "sig_kind %d" n)))

let cache_tag = function `Off -> 0 | `Ro -> 1 | `Rw -> 2

let cache_of_tag = function
  | 0 -> `Off
  | 1 -> `Ro
  | 2 -> `Rw
  | n -> raise (Wire.Error (Wire.Bad_payload (Printf.sprintf "cache %d" n)))

let put w t =
  let (`Name n) = t.workload in
  Wire.put_u8 w 0;
  Wire.put_string w n;
  Wire.put_u8 w (input_tag t.input);
  Wire.put_u8 w (match t.backend with `Sim -> 0 | `Native -> 1);
  Wire.put_string w t.technique;
  Wire.put_u32 w t.threads;
  Wire.put_u8 w (match t.policy with `Fixed -> 0 | `Auto -> 1);
  Wire.put_u32 w t.grain;
  Wire.put_u32 w t.batch;
  Wire.put_opt w (fun w k -> Wire.put_u8 w (sig_tag k)) t.sig_kind;
  Wire.put_opt w Wire.put_u32 t.spec_distance;
  Wire.put_u32 w t.checkpoint_every;
  Wire.put_bool w t.verify;
  Wire.put_u8 w (cache_tag t.cache);
  Wire.put_opt w Wire.put_string t.fault;
  Wire.put_opt w Wire.put_f64 t.deadline_ms;
  Wire.put_u8 w (match t.priority with `High -> 0 | `Normal -> 1);
  Wire.put_string w t.tenant

let get r =
  let workload =
    match Wire.get_u8 r with
    | 0 -> `Name (Wire.get_string r)
    | n ->
        (* tag 1, a marshalled workload, is retired: rejected undecoded *)
        raise (Wire.Error (Wire.Bad_payload (Printf.sprintf "workload %d" n)))
  in
  let input = input_of_tag (Wire.get_u8 r) in
  let backend =
    match Wire.get_u8 r with
    | 0 -> `Sim
    | 1 -> `Native
    | n ->
        raise (Wire.Error (Wire.Bad_payload (Printf.sprintf "backend %d" n)))
  in
  let technique = Wire.get_string r in
  let threads = Wire.get_u32 r in
  let policy =
    match Wire.get_u8 r with
    | 0 -> `Fixed
    | 1 -> `Auto
    | n -> raise (Wire.Error (Wire.Bad_payload (Printf.sprintf "policy %d" n)))
  in
  let grain = Wire.get_u32 r in
  let batch = Wire.get_u32 r in
  let sig_kind = Wire.get_opt r (fun r -> sig_of_tag (Wire.get_u8 r)) in
  let spec_distance = Wire.get_opt r Wire.get_u32 in
  let checkpoint_every = Wire.get_u32 r in
  let verify = Wire.get_bool r in
  let cache = cache_of_tag (Wire.get_u8 r) in
  let fault = Wire.get_opt r Wire.get_string in
  let deadline_ms = Wire.get_opt r Wire.get_f64 in
  let priority =
    match Wire.get_u8 r with
    | 0 -> `High
    | 1 -> `Normal
    | n ->
        raise (Wire.Error (Wire.Bad_payload (Printf.sprintf "priority %d" n)))
  in
  let tenant = Wire.get_string r in
  {
    workload;
    input;
    backend;
    technique;
    threads;
    policy;
    grain;
    batch;
    sig_kind;
    spec_distance;
    checkpoint_every;
    verify;
    cache;
    fault;
    deadline_ms;
    priority;
    tenant;
  }

(* ---- resolution ---- *)

let cache_rank = function `Off -> 0 | `Ro -> 1 | `Rw -> 2

let min_cache a b = if cache_rank a <= cache_rank b then a else b

type resolve_error =
  [ `Unknown_workload of string | `Bad_request of string ]

let to_crossinv ?obs ?pool ?cache_dir ?(cache_limit = `Rw) ?deadline_ms
    ?on_watchdog t =
  if t.threads < 1 then
    Error (`Bad_request (Printf.sprintf "bad thread count %d" t.threads))
  else
    let wl =
      let (`Name n) = t.workload in
      try Ok (Wl.Registry.find n)
      with Invalid_argument _ -> Error (`Unknown_workload n)
    in
    let fault =
      match t.fault with
      | None -> Ok None
      | Some s -> (
          match Xinv_native.Fault.spec_of_string s with
          | Ok sp -> Ok (Some sp)
          | Error m -> Error (`Bad_request ("bad fault spec: " ^ m)))
    in
    match (wl, fault) with
    | (Error _ as e), _ -> e
    | _, (Error _ as e) -> e
    | Ok wl, Ok fault -> (
        match Cx.technique_of_string t.technique with
        | None -> Error (`Bad_request ("unknown technique " ^ t.technique))
        | Some technique ->
            let backend =
              match t.backend with
              | `Sim -> `Sim None
              | `Native ->
                  `Native
                    {
                      Cx.native_defaults with
                      pool;
                      grain = t.grain;
                      batch = t.batch;
                      fault;
                      deadline_ms;
                      on_watchdog;
                    }
            in
            Ok
              (Cx.Request.make ~backend ~input:t.input
                 ~checkpoint_every:t.checkpoint_every ~verify:t.verify
                 ~cache:(min_cache t.cache cache_limit)
                 ?cache_dir ?obs
                 ~policy:(t.policy :> Cx.policy)
                 ?sig_kind:t.sig_kind ?spec_distance:t.spec_distance
                 ~technique ~threads:t.threads wl))

let describe t =
  let (`Name name) = t.workload in
  Printf.sprintf "%s/%s %s x%d %s%s tenant=%s"
    name
    (Wl.Workload.input_name t.input)
    t.technique t.threads
    (match t.backend with `Sim -> "sim" | `Native -> "native")
    (match t.priority with `High -> " high" | `Normal -> "")
    t.tenant
