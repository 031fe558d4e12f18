module Ir = Xinv_ir

type t = Round_robin | Mem_partition | Least_loaded

let name = function
  | Round_robin -> "round-robin"
  | Mem_partition -> "memory-partition"
  | Least_loaded -> "least-loaded"

(* [first_write]: the first write's index and its array's size. *)
let pick t ~loads ~threads ~slot ~first_write =
  match t with
  | Round_robin -> slot mod threads
  | Mem_partition -> (
      match first_write with
      | None -> slot mod threads
      | Some (idx, size) -> idx * threads / size)
  | Least_loaded -> (
      match loads with
      | None -> slot mod threads
      | Some ls ->
          let best = ref (slot mod threads) in
          for w = 0 to threads - 1 do
            if ls.(w) < ls.(!best) then best := w
          done;
          !best)

let assign t (slice : Ir.Slice.t) shadow deps ~loads ~threads ~iter ~slot env =
  assert (threads > 0);
  let mem = env.Ir.Env.mem in
  let first_write = ref None in
  let waddrs =
    List.map
      (fun (a : Ir.Access.t) ->
        let idx = Ir.Expr.eval env a.Ir.Access.index in
        let addr = Ir.Memory.addr mem a.Ir.Access.base idx in
        if Option.is_none !first_write then
          first_write := Some (idx, Ir.Memory.size mem a.Ir.Access.base);
        addr)
      slice.Ir.Slice.writes
  in
  let tid = pick t ~loads ~threads ~slot ~first_write:!first_write in
  Xinv_runtime.Shadow.Deps.clear deps;
  Ir.Slice.iter_read_addresses slice env (fun addr ->
      Xinv_runtime.Shadow.note_read_deps shadow addr ~tid ~iter deps);
  List.iter
    (fun addr -> Xinv_runtime.Shadow.note_write_deps shadow addr ~tid ~iter deps)
    waddrs;
  tid
