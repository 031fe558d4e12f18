module Cx = Xinv_core.Crossinv
module Wl = Xinv_workloads
module Policy = Xinv_cache.Policy

type workload = [ `Name of string ]

type t = {
  workload : workload;
  input : Wl.Workload.input;
  axes : Policy.t;
  policy : [ `Fixed | `Auto ];
  verify : bool;
  cache : [ `Off | `Ro | `Rw ];
  fault : string option;
  deadline_ms : float option;
  priority : [ `High | `Normal ];
  tenant : string;
}

let make ?(input = Wl.Workload.Ref) ?(backend = `Sim)
    ?(technique = Policy.default.technique) ?(threads = Policy.default.domains)
    ?(policy = `Fixed) ?(grain = Policy.default.grain)
    ?(batch = Policy.default.batch) ?(sig_kind = Policy.default.sig_kind)
    ?spec_distance ?(checkpoint_every = Policy.default.epoch_size)
    ?(verify = true) ?(cache = `Off) ?fault ?deadline_ms ?(priority = `Normal)
    ?(tenant = "default") workload =
  {
    workload;
    input;
    axes =
      {
        Policy.backend;
        technique;
        domains = threads;
        grain;
        batch;
        sig_kind;
        spec_distance;
        epoch_size = checkpoint_every;
      };
    policy;
    verify;
    cache;
    fault;
    deadline_ms;
    priority;
    tenant;
  }

(* ---- codec ---- *)

let input_tags =
  Wl.Workload.[ (Train, 0); (Train_spec, 1); (Ref, 2); (Ref_spec, 3) ]

let priority_tags = [ (`High, 0); (`Normal, 1) ]
let backend_tags = [ (`Sim, 0); (`Native, 1) ]
let policy_tags = [ (`Fixed, 0); (`Auto, 1) ]
let sig_tags = [ (`Range, 0); (`Segmented, 1); (`Bloom, 2); (`Exact, 3) ]
let cache_tags = [ (`Off, 0); (`Ro, 1); (`Rw, 2) ]

(* The xinv-serve/1 field order interleaves [policy] with the axes; a
   frame any client has ever written must keep decoding. *)
let put w t =
  let (`Name n) = t.workload and a = t.axes in
  Wire.put_u8 w 0;
  Wire.put_string w n;
  Wire.put_enum w input_tags t.input;
  Wire.put_enum w backend_tags a.Policy.backend;
  Wire.put_string w a.Policy.technique;
  Wire.put_u32 w a.Policy.domains;
  Wire.put_enum w policy_tags t.policy;
  Wire.put_u32 w a.Policy.grain;
  Wire.put_u32 w a.Policy.batch;
  Wire.put_opt w (fun w -> Wire.put_enum w sig_tags) (Some a.Policy.sig_kind);
  Wire.put_opt w Wire.put_u32 a.Policy.spec_distance;
  Wire.put_u32 w a.Policy.epoch_size;
  Wire.put_bool w t.verify;
  Wire.put_enum w cache_tags t.cache;
  Wire.put_opt w Wire.put_string t.fault;
  Wire.put_opt w Wire.put_f64 t.deadline_ms;
  Wire.put_enum w priority_tags t.priority;
  Wire.put_string w t.tenant

let get r =
  let workload =
    match Wire.get_u8 r with
    | 0 -> `Name (Wire.get_string r)
    | n ->
        (* tag 1, a marshalled workload, is retired: rejected undecoded *)
        raise (Wire.Error (Wire.Bad_payload (Printf.sprintf "workload %d" n)))
  in
  let input = Wire.get_enum r "input" input_tags in
  let backend = Wire.get_enum r "backend" backend_tags in
  let technique = Wire.get_string r in
  let domains = Wire.get_u32 r in
  let policy = Wire.get_enum r "policy" policy_tags in
  let grain = Wire.get_u32 r in
  let batch = Wire.get_u32 r in
  let sig_kind =
    (* an absent signature is the default one *)
    Option.value ~default:Policy.default.sig_kind
      (Wire.get_opt r (fun r -> Wire.get_enum r "sig_kind" sig_tags))
  in
  let spec_distance = Wire.get_opt r Wire.get_u32 in
  let epoch_size = Wire.get_u32 r in
  let verify = Wire.get_bool r in
  let cache = Wire.get_enum r "cache" cache_tags in
  let fault = Wire.get_opt r Wire.get_string in
  let deadline_ms = Wire.get_opt r Wire.get_f64 in
  let priority = Wire.get_enum r "priority" priority_tags in
  let tenant = Wire.get_string r in
  {
    workload;
    input;
    axes =
      {
        Policy.backend;
        technique;
        domains;
        grain;
        batch;
        sig_kind;
        spec_distance;
        epoch_size;
      };
    policy;
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

let ( let* ) = Result.bind

let to_crossinv ?obs ?pool ?cache_dir ?(cache_limit = `Rw) ?deadline_ms
    ?on_watchdog t =
  let a = t.axes in
  let* () =
    if a.Policy.domains >= 1 then Ok ()
    else
      Error (`Bad_request (Printf.sprintf "bad thread count %d" a.Policy.domains))
  in
  let* wl =
    let (`Name n) = t.workload in
    try Ok (Wl.Registry.find n)
    with Invalid_argument _ -> Error (`Unknown_workload n)
  in
  let* fault =
    match t.fault with
    | None -> Ok None
    | Some s -> (
        match Xinv_native.Fault.spec_of_string s with
        | Ok sp -> Ok (Some sp)
        | Error m -> Error (`Bad_request ("bad fault spec: " ^ m)))
  in
  let* technique =
    Option.to_result
      ~none:(`Bad_request ("unknown technique " ^ a.Policy.technique))
      (Cx.technique_of_string a.Policy.technique)
  in
  (* The daemon's environment rides on a native backend; [apply_policy]
     keeps it when the axes pick native and drops it for the simulator. *)
  let env =
    `Native { Cx.native_defaults with pool; fault; deadline_ms; on_watchdog }
  in
  let r =
    Cx.Request.make ~backend:env ~input:t.input ~verify:t.verify
      ~cache:(min_cache t.cache cache_limit)
      ?cache_dir ?obs ~technique ~threads:a.Policy.domains wl
    |> Cx.Request.apply_policy a
  in
  Ok { r with Cx.Request.policy = t.policy }
