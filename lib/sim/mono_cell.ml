type t = { mutable value : int; mutable waiters : (int * (unit -> unit)) list }

let create ?(init = min_int) () = { value = init; waiters = [] }

let get c = c.value

let set c v =
  assert (v >= c.value);
  c.value <- v;
  let ready, rest = List.partition (fun (th, _) -> th <= v) c.waiters in
  c.waiters <- rest;
  List.iter (fun (_, w) -> w ()) (List.rev ready)

let wait_ge ?(cat = Category.Sync_wait) c threshold =
  if c.value < threshold then
    Proc.suspend cat (fun waker -> c.waiters <- (threshold, waker) :: c.waiters)

let raise_to c v = if v > c.value then set c v
