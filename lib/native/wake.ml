(* A parker is a non-blocking self-pipe: [unpark] writes one byte, a parked
   waiter blocks in [select] on the read end.  [notified] coalesces the
   wakes a parked waiter receives into one byte (and keeps the pipe from
   filling); the waiter clears it before every re-check of its predicate. *)
type parker = {
  r : Unix.file_descr;
  w : Unix.file_descr;
  notified : bool Atomic.t;
}

let new_parker () =
  let r, w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock r;
  Unix.set_nonblock w;
  { r; w; notified = Atomic.make false }

(* Parkers come from a process-wide free list rather than [Domain.DLS]:
   systhreads that share a domain (the serve daemon's connection threads
   and cohort participant 0) can be parked at the same time and must not
   share a pipe.  Pipes are never closed, so the fd count is bounded by
   the largest number of waiters ever parked at once.  Cons cells are
   fresh on every push, so the CAS stack has no ABA problem. *)
let free : parker list Atomic.t = Atomic.make []

let rec acquire () =
  match Atomic.get free with
  | [] -> new_parker ()
  | p :: rest as l -> if Atomic.compare_and_set free l rest then p else acquire ()

let rec release p =
  let l = Atomic.get free in
  if not (Atomic.compare_and_set free l (p :: l)) then release p

let byte = Bytes.make 1 '!'

let unpark p =
  if not (Atomic.exchange p.notified true) then
    try ignore (Unix.single_write p.w byte 0 1 : int) with Unix.Unix_error _ -> ()

let drain fd =
  let b = Bytes.create 64 in
  let rec go () =
    match Unix.read fd b 0 64 with
    | 64 -> go ()
    | _ | (exception Unix.Unix_error _) -> ()
  in
  go ()

(* [Unix.select] releases the domain's runtime lock while it blocks. *)
let block p timeout =
  (match Unix.select [ p.r ] [] [] timeout with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
  drain p.r

type t = parker list Atomic.t

(* Padded: every satisfying write reads it, parking waiters write it. *)
let create () : t = Pad.atomic []

let signal (t : t) =
  match Atomic.get t with [] -> () | ps -> List.iter unpark ps

let rec register (t : t) p =
  let l = Atomic.get t in
  if not (Atomic.compare_and_set t l (p :: l)) then register t p

let rec unregister (t : t) p =
  let l = Atomic.get t in
  if not (Atomic.compare_and_set t l (List.filter (fun q -> q != p) l)) then
    unregister t p

(* Measured on a 2-vCPU VM where one [Domain.cpu_relax] takes about 30 ns,
   so 2048 steps spin for about 60 us.  On the native-ref benchmark workload
   that covers most gaps between a DOMORE scheduler's flushes and between
   SPECCROSS signatures; at 512 steps (15 us) the workers parked there often
   enough that the producer's wake-up syscalls raised the DOMORE p50 by a
   quarter.  With one core to run on, the party a waiter waits for cannot
   run while it spins, so the waiter parks at once: pinned to one core, the
   2-domain SYMM barrier run took 1.8x sequential this way and 7.5-13x with
   the 60 us spin. *)
let spin_budget = if Domain.recommended_domain_count () > 1 then 2048 else 0

(* No lost wake-up: a waiter registers on every wake point, clears
   [notified] and only then re-checks [pred]; a party makes [pred] true
   with an [Atomic] write and only then reads the wake point.  Both sides
   use sequentially consistent atomics, so either the re-check sees the
   write or the signal sees the registration and unparks. *)
let park ts ~until pred =
  let p = acquire () in
  List.iter (fun t -> register t p) ts;
  let rec loop () =
    Atomic.set p.notified false;
    if pred () then true
    else if until = Float.infinity then (block p (-1.); loop ())
    else
      let left = until -. Unix.gettimeofday () in
      if left <= 0. then false else (block p left; loop ())
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun t -> unregister t p) ts;
      release p)
    loop

let await ?(until = Float.infinity) ts pred =
  let rec spin n = pred () || (n > 0 && (Domain.cpu_relax (); spin (n - 1))) in
  spin spin_budget || park ts ~until pred
