type t = {
  parties : int;
  count : int Atomic.t;
  sense : int Atomic.t;
  wake : Wake.t;  (* signalled by the release *)
}

let create ~parties =
  if parties <= 0 then invalid_arg "Nbar.create: parties must be positive";
  (* Each atomic on its own cache line: arrivals hammer [count] while
     released parties poll [sense]; sharing a line would make every
     arrival invalidate every waiter. *)
  { parties; count = Pad.atomic 0; sense = Pad.atomic 0; wake = Wake.create () }

let wait ?wd ?(role = "party") ?(serial = ignore) t =
  let s = Atomic.get t.sense in
  if Atomic.fetch_and_add t.count 1 = t.parties - 1 then begin
    (* Last arrival runs the serial section, then resets and flips the
       sense, releasing the others. *)
    serial ();
    Atomic.set t.count 0;
    Atomic.set t.sense (s + 1);
    Wake.signal t.wake
  end
  else
    Watchdog.wait ?wd ~role ~for_:"barrier" ~on:[ t.wake ] (fun () ->
        Atomic.get t.sense <> s)

let waits t = Atomic.get t.sense
