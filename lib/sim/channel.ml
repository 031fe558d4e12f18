(* Ring buffer instead of a linked Queue.t: produce/consume allocate nothing
   once the ring has grown to the queue's high-water mark. *)
type 'a t = {
  mutable buf : 'a array;
  mutable head : int;  (* index of the oldest element *)
  mutable len : int;
  mutable waiters : (unit -> unit) list;  (* consumers blocked on empty *)
  produce_cost : float;
  consume_cost : float;
  mutable produced : int;
}

let create ?(produce_cost = 0.) ?(consume_cost = 0.) () =
  {
    buf = [||];
    head = 0;
    len = 0;
    waiters = [];
    produce_cost;
    consume_cost;
    produced = 0;
  }

let length q = q.len

let produced q = q.produced

let grow q x =
  let cap = Array.length q.buf in
  if cap = 0 then q.buf <- Array.make 16 x
  else begin
    let nbuf = Array.make (2 * cap) x in
    for i = 0 to q.len - 1 do
      nbuf.(i) <- q.buf.((q.head + i) mod cap)
    done;
    q.buf <- nbuf;
    q.head <- 0
  end

let push q x =
  if q.len = Array.length q.buf then grow q x;
  q.buf.((q.head + q.len) mod Array.length q.buf) <- x;
  q.len <- q.len + 1;
  q.produced <- q.produced + 1

let wake_one q =
  match q.waiters with
  | [] -> ()
  | w :: rest ->
      q.waiters <- rest;
      w ()

let produce q x =
  if q.produce_cost > 0. then Proc.advance Category.Queue q.produce_cost;
  push q x;
  wake_one q

let pop q =
  let x = q.buf.(q.head) in
  q.head <- (q.head + 1) mod Array.length q.buf;
  q.len <- q.len - 1;
  x

let rec consume q =
  if q.len = 0 then begin
    Proc.suspend Category.Queue (fun waker -> q.waiters <- q.waiters @ [ waker ]);
    consume q
  end
  else begin
    if q.consume_cost > 0. then Proc.advance Category.Queue q.consume_cost;
    pop q
  end

let try_consume q =
  if q.len = 0 then None
  else begin
    if q.consume_cost > 0. then Proc.advance Category.Queue q.consume_cost;
    Some (pop q)
  end
