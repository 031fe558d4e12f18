module Ir = Xinv_ir
module Shadow = Xinv_runtime.Shadow

type t = Round_robin | Mem_partition | Least_loaded

let name = function
  | Round_robin -> "round-robin"
  | Mem_partition -> "memory-partition"
  | Least_loaded -> "least-loaded"

let pick t ~(writes : Ir.Footprint.site array) ~loads ~threads ~slot env =
  match t with
  | Mem_partition when Array.length writes > 0 ->
      Ir.Footprint.owner ~threads env writes.(0)
  | Least_loaded -> (
      match loads with
      | None -> slot mod threads
      | Some ls ->
          let best = ref (slot mod threads) in
          for w = 0 to threads - 1 do
            if ls.(w) < ls.(!best) then best := w
          done;
          !best)
  | Round_robin | Mem_partition -> slot mod threads

let assign t ~reads ~writes shadow deps ~loads ~threads ~iter ~slot env =
  assert (threads > 0);
  let tid = pick t ~writes ~loads ~threads ~slot env in
  Shadow.Deps.clear deps;
  for k = 0 to Array.length reads - 1 do
    Shadow.note_read_deps shadow (Ir.Footprint.addr env reads.(k)) ~tid ~iter deps
  done;
  for k = 0 to Array.length writes - 1 do
    Shadow.note_write_deps shadow (Ir.Footprint.addr env writes.(k)) ~tid ~iter deps
  done;
  tid
