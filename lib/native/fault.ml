type kind =
  | Worker_raise
  | Scheduler_die
  | Checker_die
  | Queue_stall
  | Poison_cond

type t = { kind : kind; domain : int; site : int; fired_ : bool Atomic.t }

type spec =
  | Exact of { kind : kind; domain : int; site : int }
  | Random of int

exception Injected of { kind : kind; domain : int; site : int }

let kind_name = function
  | Worker_raise -> "raise"
  | Scheduler_die -> "sched-die"
  | Checker_die -> "checker-die"
  | Queue_stall -> "stall"
  | Poison_cond -> "poison"

let all_kinds =
  [| Worker_raise; Scheduler_die; Checker_die; Queue_stall; Poison_cond |]

let spec_to_string = function
  | Random seed -> Printf.sprintf "rand:%d" seed
  | Exact { kind; domain; site } ->
      let dom = if domain < 0 then "*" else string_of_int domain in
      (match kind with
      | Scheduler_die | Checker_die ->
          Printf.sprintf "%s@%d" (kind_name kind) site
      | _ -> Printf.sprintf "%s@%s:%d" (kind_name kind) dom site)

let spec_of_string s =
  let fail () =
    Error
      (Printf.sprintf
         "bad fault spec %S (expected KIND@DOMAIN:SITE, KIND@SITE or rand:SEED)"
         s)
  in
  let int_of x = int_of_string_opt (String.trim x) in
  match String.index_opt s ':' with
  | Some i when String.length s > 5 && String.sub s 0 5 = "rand:" -> (
      ignore i;
      match int_of (String.sub s 5 (String.length s - 5)) with
      | Some seed -> Ok (Random seed)
      | None -> fail ())
  | _ -> (
      match String.index_opt s '@' with
      | None -> fail ()
      | Some at -> (
          let kind_s = String.sub s 0 at in
          let rest = String.sub s (at + 1) (String.length s - at - 1) in
          let kind =
            match kind_s with
            | "raise" -> Some Worker_raise
            | "sched-die" -> Some Scheduler_die
            | "checker-die" -> Some Checker_die
            | "stall" -> Some Queue_stall
            | "poison" -> Some Poison_cond
            | _ -> None
          in
          match kind with
          | None -> fail ()
          | Some kind -> (
              match String.index_opt rest ':' with
              | None -> (
                  (* KIND@SITE: any domain *)
                  match int_of rest with
                  | Some site when site >= 0 ->
                      Ok (Exact { kind; domain = -1; site })
                  | _ -> fail ())
              | Some c -> (
                  let dom_s = String.sub rest 0 c in
                  let site_s =
                    String.sub rest (c + 1) (String.length rest - c - 1)
                  in
                  let domain =
                    if dom_s = "*" then Some (-1) else int_of dom_s
                  in
                  match (domain, int_of site_s) with
                  | Some domain, Some site when site >= 0 ->
                      Ok (Exact { kind; domain; site })
                  | _ -> fail ()))))

let resolve ~domains ~sites spec =
  match spec with
  | Exact { kind; domain; site } ->
      { kind; domain; site; fired_ = Atomic.make false }
  | Random seed ->
      let p = Xinv_util.Prng.create ~seed in
      let kind = all_kinds.(Xinv_util.Prng.int p (Array.length all_kinds)) in
      let domain = Xinv_util.Prng.int p (Stdlib.max 1 domains) in
      let site = Xinv_util.Prng.int p (Stdlib.max 1 sites) in
      { kind; domain; site; fired_ = Atomic.make false }

let fires fo want ~domain ~site =
  match fo with
  | None -> false
  | Some f ->
      f.kind = want
      && (f.domain < 0 || f.domain = domain)
      && site >= f.site
      && Atomic.compare_and_set f.fired_ false true

let inject fo want ~domain ~site =
  if fires fo want ~domain ~site then
    match fo with
    | Some { kind; site = _; _ } -> raise (Injected { kind; domain; site })
    | None -> assert false

let fired = function None -> false | Some f -> Atomic.get f.fired_
let kind = function None -> None | Some f -> Some f.kind
let info { kind; domain; site; _ } = (kind, domain, site)
