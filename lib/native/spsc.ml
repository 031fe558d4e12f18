(* Hot-path layout:
   - [head]/[tail] are padded onto their own cache lines (Pad.atomic), so a
     producer advancing [tail] never invalidates the consumer's polls of
     [head] and vice versa.
   - Each side keeps a *cached* copy of the peer's index (again padded and
     single-writer): the producer only re-reads [head] when the queue looks
     full against its cache, so in steady state an operation touches no
     shared line but its own counter.
   - [cap] is the exact requested capacity: a queue asked for 5 slots admits
     exactly 5 items even though the backing buffer is rounded to 8 for
     mask-indexing. *)
type 'a t = {
  buf : 'a array;
  mask : int;
  cap : int;
  dummy : 'a;
  head : int Atomic.t;  (* next slot to pop; advanced only by the consumer *)
  tail : int Atomic.t;  (* next slot to fill; advanced only by the producer *)
  head_cache : Pad.cell;  (* producer's view of head; producer-only *)
  tail_cache : Pad.cell;  (* consumer's view of tail; consumer-only *)
  on_push : Wake.t;  (* signalled after every publish of [tail] *)
  on_pop : Wake.t;  (* signalled after every advance of [head] *)
}

let create ~dummy ~capacity =
  if capacity <= 0 then invalid_arg "Spsc.create: capacity must be positive";
  let cap = ref 1 in
  while !cap < capacity do
    cap := !cap * 2
  done;
  {
    buf = Array.make !cap dummy;
    mask = !cap - 1;
    cap = capacity;
    dummy;
    head = Pad.atomic 0;
    tail = Pad.atomic 0;
    head_cache = Pad.cell 0;
    tail_cache = Pad.cell 0;
    on_push = Wake.create ();
    on_pop = Wake.create ();
  }

let capacity t = t.cap

let on_push t = t.on_push
let on_pop t = t.on_pop

let try_push t x =
  let tail = Atomic.get t.tail in
  (if tail - t.head_cache.Pad.v >= t.cap then
     (* Looks full against the cached view: refresh from the shared index. *)
     t.head_cache.Pad.v <- Atomic.get t.head);
  if tail - t.head_cache.Pad.v >= t.cap then false
  else begin
    t.buf.(tail land t.mask) <- x;
    (* seq_cst store publishes the slot write to the consumer *)
    Atomic.set t.tail (tail + 1);
    Wake.signal t.on_push;
    true
  end

(* Bulk publish: writes as many of [src.(pos .. pos+len-1)] as fit, with a
   single atomic store of [tail] covering all of them.  Returns the number
   written.  Producer only. *)
let try_push_array t src ~pos ~len =
  if len = 0 then 0
  else begin
    let tail = Atomic.get t.tail in
    (if tail + len - t.head_cache.Pad.v > t.cap then
       t.head_cache.Pad.v <- Atomic.get t.head);
    let room = t.cap - (tail - t.head_cache.Pad.v) in
    let n = Stdlib.min len room in
    if n <= 0 then 0
    else begin
      for k = 0 to n - 1 do
        t.buf.((tail + k) land t.mask) <- src.(pos + k)
      done;
      Atomic.set t.tail (tail + n);
      Wake.signal t.on_push;
      n
    end
  end

let push ?wd ?(role = "producer") t x =
  if not (try_push t x) then
    Watchdog.wait ?wd ~role ~for_:"queue slot" ~on:[ t.on_pop ] (fun () ->
        try_push t x)

let try_pop t =
  let head = Atomic.get t.head in
  (if t.tail_cache.Pad.v - head <= 0 then
     t.tail_cache.Pad.v <- Atomic.get t.tail);
  if t.tail_cache.Pad.v - head <= 0 then None
  else begin
    let i = head land t.mask in
    let x = t.buf.(i) in
    t.buf.(i) <- t.dummy;
    Atomic.set t.head (head + 1);
    Wake.signal t.on_pop;
    Some x
  end

(* Bulk drain: pops up to [len] items into [dst.(pos ..)], with a single
   atomic store of [head] covering all of them.  Returns the number popped
   (0 when empty).  Consumer only. *)
let pop_chunk t dst ~pos ~len =
  if len = 0 then 0
  else begin
    let head = Atomic.get t.head in
    (if t.tail_cache.Pad.v - head < len then
       t.tail_cache.Pad.v <- Atomic.get t.tail);
    let avail = t.tail_cache.Pad.v - head in
    let n = Stdlib.min len avail in
    if n <= 0 then 0
    else begin
      for k = 0 to n - 1 do
        let i = (head + k) land t.mask in
        dst.(pos + k) <- t.buf.(i);
        t.buf.(i) <- t.dummy
      done;
      Atomic.set t.head (head + n);
      Wake.signal t.on_pop;
      n
    end
  end

let pop ?wd ?(role = "consumer") t =
  match try_pop t with
  | Some x -> x
  | None ->
      let r = ref t.dummy in
      Watchdog.wait ?wd ~role ~for_:"queue item" ~on:[ t.on_push ] (fun () ->
          match try_pop t with
          | Some x ->
              r := x;
              true
          | None -> false);
      !r

let length t = Stdlib.max 0 (Atomic.get t.tail - Atomic.get t.head)

(* ---- producer-side write combining ---- *)

module Batch = struct
  type 'a queue = 'a t

  type 'a b = { q : 'a queue; store : 'a array; mutable fill : int }

  let create ?(size = 32) q =
    if size <= 0 then invalid_arg "Spsc.Batch.create: size must be positive";
    { q; store = Array.make size q.dummy; fill = 0 }

  let pending b = b.fill

  let try_flush b =
    if b.fill = 0 then true
    else begin
      let n = try_push_array b.q b.store ~pos:0 ~len:b.fill in
      if n > 0 then begin
        Array.blit b.store n b.store 0 (b.fill - n);
        (* Flushed slots go back to [dummy], as popped ring slots do, so
           the buffer never pins a payload the consumer already dropped. *)
        Array.fill b.store (b.fill - n) n b.q.dummy;
        b.fill <- b.fill - n
      end;
      b.fill = 0
    end

  let flush ?wd ?(role = "producer") b =
    if not (try_flush b) then
      Watchdog.wait ?wd ~role ~for_:"queue space for batch" ~on:[ b.q.on_pop ]
        (fun () -> try_flush b)

  let add b x =
    if b.fill >= Array.length b.store then ignore (try_flush b);
    if b.fill >= Array.length b.store then false
    else begin
      b.store.(b.fill) <- x;
      b.fill <- b.fill + 1;
      true
    end

  let push ?wd ?role b x =
    if not (add b x) then begin
      flush ?wd ?role b;
      b.store.(0) <- x;
      b.fill <- 1
    end
end
