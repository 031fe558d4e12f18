type tid = int

type thread_state = Ready | Running | Suspended | Finished

type thread = { id : tid; name : string; mutable state : thread_state }

(* A pending event: a thread's first run, or the resumption of a thread
   that advanced or was woken. *)
type event =
  | Start of thread * (unit -> unit)
  | Resume of thread * (unit, unit) Effect.Deep.continuation

(* The event queue is a binary min-heap over three parallel arrays (times,
   insertion sequence numbers, events) ordered by (time, sequence), so
   equal-time events fire in the order they were scheduled.  Threads live
   in a growable array indexed by tid (tids are dense, allocated
   sequentially), charges in a flat float array indexed by
   [tid * Category.count + category], and trace segments in a growable
   array. *)
type t = {
  mutable times : floatarray;
  mutable seqs : int array;
  mutable events : event array;
  mutable pending : int;
  mutable next_seq : int;
  mutable clock : float;
  mutable threads : thread array;
  mutable n_threads : int;
  mutable charges : float array;  (* n_threads * Category.count, grown with threads *)
  trace_on : bool;
  mutable trace : Trace.segment array;
  mutable trace_len : int;
}

exception Deadlock of string

type _ Effect.t +=
  | E_advance : Category.t * string option * float -> unit Effect.t
  | E_suspend : Category.t * ((unit -> unit) -> unit) -> unit Effect.t
  | E_now : float Effect.t

let dummy_thread = { id = -1; name = ""; state = Finished }

let dummy_event = Start (dummy_thread, ignore)

let create ?(trace = false) () =
  {
    times = Float.Array.make 16 0.;
    seqs = Array.make 16 0;
    events = Array.make 16 dummy_event;
    pending = 0;
    next_seq = 0;
    clock = 0.;
    threads = Array.make 8 dummy_thread;
    n_threads = 0;
    charges = Array.make (8 * Category.count) 0.;
    trace_on = trace;
    trace = [||];
    trace_len = 0;
  }

let now eng = eng.clock

let thread_count eng = eng.n_threads

let find_thread eng id =
  if id < 0 || id >= eng.n_threads then raise Not_found;
  eng.threads.(id)

let name_of eng id = (find_thread eng id).name

let charge eng id cat dt =
  let o = (id * Category.count) + Category.index cat in
  eng.charges.(o) <- eng.charges.(o) +. dt

let charged eng id cat =
  if id < 0 || id >= eng.n_threads then 0.
  else eng.charges.((id * Category.count) + Category.index cat)

let total eng cat =
  let acc = ref 0. in
  for id = 0 to eng.n_threads - 1 do
    acc := !acc +. eng.charges.((id * Category.count) + Category.index cat)
  done;
  !acc

let busy eng id =
  if id < 0 || id >= eng.n_threads then 0.
  else begin
    let acc = ref 0. in
    let base = id * Category.count in
    for c = 0 to Category.count - 1 do
      acc := !acc +. eng.charges.(base + c)
    done;
    !acc
  end

let dummy_segment =
  { Trace.tid = -1; label = ""; cat = Category.Idle; t_start = 0.; t_end = 0. }

let push_segment eng seg =
  if eng.trace_len = Array.length eng.trace then begin
    let ncap = Stdlib.max 64 (2 * eng.trace_len) in
    let narr = Array.make ncap dummy_segment in
    Array.blit eng.trace 0 narr 0 eng.trace_len;
    eng.trace <- narr
  end;
  eng.trace.(eng.trace_len) <- seg;
  eng.trace_len <- eng.trace_len + 1

let segments eng =
  let acc = ref [] in
  for i = eng.trace_len - 1 downto 0 do
    acc := eng.trace.(i) :: !acc
  done;
  !acc

(* ---------- event queue ---------- *)

let grow_queue eng =
  let cap = Array.length eng.seqs in
  let times = Float.Array.make (2 * cap) 0. in
  Float.Array.blit eng.times 0 times 0 cap;
  eng.times <- times;
  let seqs = Array.make (2 * cap) 0 in
  Array.blit eng.seqs 0 seqs 0 cap;
  eng.seqs <- seqs;
  let events = Array.make (2 * cap) dummy_event in
  Array.blit eng.events 0 events 0 cap;
  eng.events <- events

let move eng ~src ~dst =
  Float.Array.set eng.times dst (Float.Array.get eng.times src);
  eng.seqs.(dst) <- eng.seqs.(src);
  eng.events.(dst) <- eng.events.(src)

let precedes eng i j =
  let ti = Float.Array.get eng.times i and tj = Float.Array.get eng.times j in
  ti < tj || (ti = tj && eng.seqs.(i) < eng.seqs.(j))

let schedule eng time ev =
  if eng.pending = Array.length eng.seqs then grow_queue eng;
  let seq = eng.next_seq in
  eng.next_seq <- seq + 1;
  (* [seq] exceeds every queued sequence number, so the new event rises
     only above strictly later times. *)
  let i = ref eng.pending in
  while !i > 0 && time < Float.Array.get eng.times ((!i - 1) / 2) do
    let p = (!i - 1) / 2 in
    move eng ~src:p ~dst:!i;
    i := p
  done;
  Float.Array.set eng.times !i time;
  eng.seqs.(!i) <- seq;
  eng.events.(!i) <- ev;
  eng.pending <- eng.pending + 1

(* Remove the root: the last event (slot [n], untouched until the end)
   fills the hole, sinking past every child that precedes it in (time,
   sequence) order. *)
let drop_min eng =
  let n = eng.pending - 1 in
  eng.pending <- n;
  if n > 0 then begin
    let i = ref 0 and sinking = ref true in
    while !sinking do
      let l = (2 * !i) + 1 in
      let c = if l + 1 < n && precedes eng (l + 1) l then l + 1 else l in
      if c < n && precedes eng c n then begin
        move eng ~src:c ~dst:!i;
        i := c
      end
      else sinking := false
    done;
    move eng ~src:n ~dst:!i
  end;
  eng.events.(n) <- dummy_event

(* ---------- threads ---------- *)

let register_thread eng th =
  let id = th.id in
  if id >= Array.length eng.threads then begin
    let ncap = Stdlib.max (2 * Array.length eng.threads) (id + 1) in
    let narr = Array.make ncap dummy_thread in
    Array.blit eng.threads 0 narr 0 eng.n_threads;
    eng.threads <- narr
  end;
  eng.threads.(id) <- th;
  eng.n_threads <- id + 1;
  let need = eng.n_threads * Category.count in
  if need > Array.length eng.charges then begin
    let ncap = Stdlib.max (2 * Array.length eng.charges) need in
    let narr = Array.make ncap 0. in
    Array.blit eng.charges 0 narr 0 (Array.length eng.charges);
    eng.charges <- narr
  end

(* Run [body] as a simulated thread under the effect handler.  Continuations
   captured by the handler are resumed from the engine loop, re-entering the
   same handler frame.  A wait is charged to its category when the waker
   fires: the thread's own cells take no other charge while it is
   suspended, so the addition order per cell is that of the thread. *)
let start_thread eng th body =
  let open Effect.Deep in
  match_with
    (fun () ->
      th.state <- Running;
      body ())
    ()
    {
      retc = (fun () -> th.state <- Finished);
      exnc = (fun e -> raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | E_advance (cat, label, dt) ->
              Some
                (fun (k : (a, unit) continuation) ->
                  assert (dt >= 0.);
                  charge eng th.id cat dt;
                  if eng.trace_on then
                    push_segment eng
                      {
                        Trace.tid = th.id;
                        label = (match label with Some l -> l | None -> Category.to_string cat);
                        cat;
                        t_start = eng.clock;
                        t_end = eng.clock +. dt;
                      };
                  th.state <- Ready;
                  schedule eng (eng.clock +. dt) (Resume (th, k)))
          | E_suspend (cat, register) ->
              Some
                (fun (k : (a, unit) continuation) ->
                  th.state <- Suspended;
                  let since = eng.clock and woken = ref false in
                  register (fun () ->
                      if not !woken then begin
                        woken := true;
                        let dt = eng.clock -. since in
                        if dt > 0. then charge eng th.id cat dt;
                        th.state <- Ready;
                        schedule eng eng.clock (Resume (th, k))
                      end))
          | E_now -> Some (fun k -> continue k eng.clock)
          | _ -> None);
    }

let spawn eng ?name body =
  let id = eng.n_threads in
  let name = match name with Some n -> n | None -> Printf.sprintf "t%d" id in
  let th = { id; name; state = Ready } in
  register_thread eng th;
  schedule eng eng.clock (Start (th, body));
  id

let deadlock eng =
  let stuck = ref [] in
  for i = eng.n_threads - 1 downto 0 do
    let th = eng.threads.(i) in
    if th.state = Suspended || th.state = Ready then stuck := th :: !stuck
  done;
  if !stuck <> [] then begin
    let state_name = function
      | Suspended -> "Suspended"
      | Ready -> "Ready"
      | Running -> "Running"
      | Finished -> "Finished"
    in
    raise
      (Deadlock
         (Printf.sprintf "at t=%g: %s" eng.clock
            (String.concat ", "
               (List.map
                  (fun th -> Printf.sprintf "%s(#%d,%s)" th.name th.id (state_name th.state))
                  !stuck))))
  end

let run eng =
  while eng.pending > 0 do
    let time = Float.Array.get eng.times 0 and ev = eng.events.(0) in
    drop_min eng;
    assert (time >= eng.clock -. 1e-9);
    if time > eng.clock then eng.clock <- time;
    match ev with
    | Start (th, body) -> start_thread eng th body
    | Resume (th, k) ->
        th.state <- Running;
        Effect.Deep.continue k ()
  done;
  deadlock eng
