type kind =
  | Dispatch
  | Sync_send
  | Sync_recv
  | Barrier_arrive
  | Barrier_release
  | Epoch_commit
  | Misspec
  | Stall_begin
  | Stall_end
  | Queue_sample
  | Checkpoint
  | Sig_check
  | Recovery
  | Mark

type clock = Cycles | Ns

let clock_name = function Cycles -> "cycles" | Ns -> "ns"

let kind_code = function
  | Dispatch -> 0
  | Sync_send -> 1
  | Sync_recv -> 2
  | Barrier_arrive -> 3
  | Barrier_release -> 4
  | Epoch_commit -> 5
  | Misspec -> 6
  | Stall_begin -> 7
  | Stall_end -> 8
  | Queue_sample -> 9
  | Checkpoint -> 10
  | Sig_check -> 11
  | Recovery -> 12
  | Mark -> 13

(* Indexed by [kind_code]. *)
let kinds =
  [|
    Dispatch; Sync_send; Sync_recv; Barrier_arrive; Barrier_release; Epoch_commit;
    Misspec; Stall_begin; Stall_end; Queue_sample; Checkpoint; Sig_check; Recovery; Mark;
  |]

let kind_of_code c = if c >= 0 && c < Array.length kinds then Some kinds.(c) else None

let kind_name = function
  | Dispatch -> "dispatch"
  | Sync_send -> "sync-send"
  | Sync_recv -> "sync-recv"
  | Barrier_arrive -> "barrier-arrive"
  | Barrier_release -> "barrier-release"
  | Epoch_commit -> "epoch-commit"
  | Misspec -> "misspec"
  | Stall_begin -> "stall-begin"
  | Stall_end -> "stall-end"
  | Queue_sample -> "queue-sample"
  | Checkpoint -> "checkpoint"
  | Sig_check -> "sig-check"
  | Recovery -> "recovery"
  | Mark -> "mark"

type entry = {
  f_at : int;
  f_domain : int;
  f_kind : kind;
  f_a : int;
  f_b : int;
}

(* Slots are 4 consecutive ints: [ts; kind-code; a; b].  [idx] is the next
   write offset (avoids a division on the hot path), [total] the monotonic
   write count. *)
type ring = { data : int array; cap : int; mutable idx : int; mutable total : int }

type t = { rings : ring array; t0 : float }

let default_capacity = 8192

let create ?(capacity = default_capacity) ~domains () =
  if capacity < 1 then invalid_arg "Flight.create: capacity < 1";
  if domains < 1 then invalid_arg "Flight.create: domains < 1";
  {
    rings =
      Array.init domains (fun _ ->
          { data = Array.make (4 * capacity) 0; cap = capacity; idx = 0; total = 0 });
    t0 = Unix.gettimeofday ();
  }

let record t ~domain kind ~a ~b =
  let r = t.rings.(domain) in
  let o = r.idx in
  r.data.(o) <- int_of_float ((Unix.gettimeofday () -. t.t0) *. 1e9);
  r.data.(o + 1) <- kind_code kind;
  r.data.(o + 2) <- a;
  r.data.(o + 3) <- b;
  let o' = o + 4 in
  r.idx <- (if o' = 4 * r.cap then 0 else o');
  r.total <- r.total + 1

let mark t ~domain v = record t ~domain Mark ~a:v ~b:0

let domains t = Array.length t.rings

let tracks t = Array.init (domains t) (Printf.sprintf "domain %d")

let capacity t = t.rings.(0).cap

let length t ~domain =
  let r = t.rings.(domain) in
  if r.total < r.cap then r.total else r.cap

let recorded t ~domain = t.rings.(domain).total

let drops t ~domain =
  let r = t.rings.(domain) in
  if r.total > r.cap then r.total - r.cap else 0

let total_drops t =
  Array.fold_left (fun acc r -> acc + if r.total > r.cap then r.total - r.cap else 0) 0 t.rings

let total_length t =
  Array.fold_left (fun acc r -> acc + min r.total r.cap) 0 t.rings

let read ?(since = 0) t ~domain =
  let r = t.rings.(domain) in
  let total = r.total in
  let n = if total < r.cap then total else r.cap in
  let oldest = total - n in
  let acc = ref [] in
  for k = n - 1 downto 0 do
    let slot = (oldest + k) mod r.cap in
    let o = 4 * slot in
    let ts = r.data.(o) in
    if ts >= since then
      match kind_of_code r.data.(o + 1) with
      | Some kind ->
          acc :=
            { f_at = ts; f_domain = domain; f_kind = kind; f_a = r.data.(o + 2); f_b = r.data.(o + 3) }
            :: !acc
      | None -> ()
  done;
  !acc

let entries t =
  let all = ref [] in
  for d = Array.length t.rings - 1 downto 0 do
    all := List.rev_append (List.rev (read t ~domain:d)) !all
  done;
  List.stable_sort (fun a b -> compare a.f_at b.f_at) !all

let elapsed_ns t =
  let m = ref 0 in
  Array.iteri
    (fun d _ ->
      List.iter (fun e -> if e.f_at > !m then m := e.f_at) (read t ~domain:d))
    t.rings;
  !m
