type t = {
  parties : int;
  mutable count : int;
  mutable waiters : (unit -> unit) list;
  mutable episodes : int;
}

let create ~parties =
  assert (parties > 0);
  { parties; count = 0; waiters = []; episodes = 0 }

let parties b = b.parties

let waits b = b.episodes

let wait ?(cost = 0.) ?(cost_cat = Category.Barrier_wait) b =
  if cost > 0. then Proc.advance cost_cat cost;
  b.count <- b.count + 1;
  if b.count = b.parties then begin
    (* Last arrival: release the generation. *)
    let ws = b.waiters in
    b.waiters <- [];
    b.count <- 0;
    b.episodes <- b.episodes + 1;
    List.iter (fun w -> w ()) (List.rev ws)
  end
  else Proc.suspend Category.Barrier_wait (fun waker -> b.waiters <- waker :: b.waiters)
