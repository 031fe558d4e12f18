type t = Round_robin | Mem_partition | Least_loaded

let name = function
  | Round_robin -> "round-robin"
  | Mem_partition -> "memory-partition"
  | Least_loaded -> "least-loaded"

let pick t ~loads ~mem ~threads ~iter ~write_addrs =
  assert (threads > 0);
  match t with
  | Round_robin -> iter mod threads
  | Mem_partition -> (
      match write_addrs with
      | [] -> iter mod threads
      | addr :: _ ->
          let arr, idx = Xinv_ir.Memory.locate mem addr in
          idx * threads / Xinv_ir.Memory.size mem arr)
  | Least_loaded -> (
      match loads with
      | None -> iter mod threads
      | Some ls ->
          let best = ref (iter mod threads) in
          for w = 0 to threads - 1 do
            if ls.(w) < ls.(!best) then best := w
          done;
          !best)

let assign t slice shadow deps ~loads ~threads ~iter ~slot env =
  let waddrs = Xinv_ir.Slice.write_addresses slice env in
  let tid =
    pick t ~loads ~mem:env.Xinv_ir.Env.mem ~threads ~iter:slot ~write_addrs:waddrs
  in
  Xinv_runtime.Shadow.Deps.clear deps;
  Xinv_ir.Slice.iter_read_addresses slice env (fun addr ->
      Xinv_runtime.Shadow.note_read_deps shadow addr ~tid ~iter deps);
  List.iter
    (fun addr -> Xinv_runtime.Shadow.note_write_deps shadow addr ~tid ~iter deps)
    waddrs;
  tid
