type t = {
  mutable held : bool;
  mutable waiters : (unit -> unit) list;
  acquire_cost : float;
  mutable contended : int;
}

let create ?(acquire_cost = 0.) () =
  { held = false; waiters = []; acquire_cost; contended = 0 }

let contended m = m.contended

let rec lock m =
  if m.acquire_cost > 0. then Proc.advance Category.Runtime m.acquire_cost;
  if m.held then begin
    m.contended <- m.contended + 1;
    Proc.suspend Category.Sync_wait (fun waker -> m.waiters <- m.waiters @ [ waker ]);
    lock m
  end
  else m.held <- true

let unlock m =
  assert m.held;
  m.held <- false;
  match m.waiters with
  | [] -> ()
  | w :: rest ->
      m.waiters <- rest;
      w ()

let with_lock m f =
  lock m;
  let r = try f () with e -> unlock m; raise e in
  unlock m;
  r
