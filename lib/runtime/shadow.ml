(* ---------- per-iteration dependence accumulator ---------- *)

module Deps = struct
  (* Distinct (tid, iter) pairs in first-seen order.  A worker bitmask makes
     the common "first dependence on this worker" case O(1); only when the
     worker's bit is already set do we scan the (tiny) pair list. *)
  type t = {
    mutable tids : int array;
    mutable iters : int array;
    mutable n : int;
    mutable mask : int;
  }

  let create () = { tids = Array.make 8 0; iters = Array.make 8 0; n = 0; mask = 0 }

  let clear d =
    d.n <- 0;
    d.mask <- 0

  let length d = d.n

  let add d ~tid ~iter =
    let bit = if tid < 62 then 1 lsl tid else 0 in
    let maybe_seen = if tid < 62 then d.mask land bit <> 0 else d.n > 0 in
    let dup =
      maybe_seen
      &&
      let rec scan j = j < d.n && ((d.tids.(j) = tid && d.iters.(j) = iter) || scan (j + 1)) in
      scan 0
    in
    if not dup then begin
      if d.n = Array.length d.tids then begin
        let ntids = Array.make (2 * d.n) 0 and niters = Array.make (2 * d.n) 0 in
        Array.blit d.tids 0 ntids 0 d.n;
        Array.blit d.iters 0 niters 0 d.n;
        d.tids <- ntids;
        d.iters <- niters
      end;
      d.tids.(d.n) <- tid;
      d.iters.(d.n) <- iter;
      d.mask <- d.mask lor bit;
      d.n <- d.n + 1
    end

  let iter f d =
    for j = 0 to d.n - 1 do
      f ~tid:d.tids.(j) ~iter:d.iters.(j)
    done

  let to_list d =
    let acc = ref [] in
    for j = d.n - 1 downto 0 do
      acc := (d.tids.(j), d.iters.(j)) :: !acc
    done;
    !acc
end

(* ---------- the shadow ---------- *)

(* One row per flat address: the last write (worker/iteration) and, in a
   [words * nw] matrix, each worker's latest read iteration with a recency
   tick.  The tick reproduces the reference's reader order (most recently
   reading worker first).  A row belongs to the current generation iff
   [stamps.(addr) = gen]; any other row reads as untouched, so bumping
   [gen] forgets everything at once. *)

type t = {
  nw : int;  (* workers: reader columns per row *)
  stamps : int array;  (* generation that last touched the row; 0 = never *)
  wtids : int array;  (* last writer tid, [no_entry] = none *)
  witers : int array;
  r_iters : int array;  (* words * nw; [no_entry] = absent *)
  r_ticks : int array;  (* words * nw; recency of the latest read *)
  mutable gen : int;  (* starts at 1 so fresh [stamps] are all stale *)
  mutable tick : int;
  (* scratch for sorting a write's foreign readers by recency *)
  sc_tid : int array;
  sc_iter : int array;
  sc_tick : int array;
}

let no_entry = min_int

let create ~words ~workers =
  if words < 0 || workers <= 0 then
    invalid_arg (Printf.sprintf "Shadow.create: words %d, workers %d" words workers);
  {
    nw = workers;
    stamps = Array.make words 0;
    wtids = Array.make words no_entry;
    witers = Array.make words no_entry;
    r_iters = Array.make (words * workers) no_entry;
    r_ticks = Array.make (words * workers) 0;
    gen = 1;
    tick = 0;
    sc_tid = Array.make workers 0;
    sc_iter = Array.make workers 0;
    sc_tick = Array.make workers 0;
  }

let reset sh = sh.gen <- sh.gen + 1

(* Claim [addr]'s row for this generation (emptying a stale one) and add
   its last write to [deps] unless [tid] made it. *)
let touch sh addr ~tid deps =
  if tid < 0 || tid >= sh.nw then
    invalid_arg (Printf.sprintf "Shadow: worker %d of %d" tid sh.nw);
  if sh.stamps.(addr) <> sh.gen then begin
    sh.stamps.(addr) <- sh.gen;
    sh.wtids.(addr) <- no_entry;
    Array.fill sh.r_iters (addr * sh.nw) sh.nw no_entry
  end
  else if sh.wtids.(addr) <> no_entry && sh.wtids.(addr) <> tid then
    Deps.add deps ~tid:sh.wtids.(addr) ~iter:sh.witers.(addr)

let note_read_deps sh addr ~tid ~iter deps =
  touch sh addr ~tid deps;
  let o = (addr * sh.nw) + tid in
  let prev = sh.r_iters.(o) in
  sh.r_iters.(o) <- (if prev = no_entry || iter > prev then iter else prev);
  sh.r_ticks.(o) <- sh.tick;
  sh.tick <- sh.tick + 1

let note_write_deps sh addr ~tid ~iter deps =
  touch sh addr ~tid deps;
  (* gather foreign readers, most recent first (insertion sort on tick) *)
  let base = addr * sh.nw in
  let n = ref 0 in
  for k = 0 to sh.nw - 1 do
    let it = sh.r_iters.(base + k) in
    if it <> no_entry then begin
      if k <> tid then begin
        let tk = sh.r_ticks.(base + k) in
        let j = ref !n in
        while !j > 0 && sh.sc_tick.(!j - 1) < tk do
          sh.sc_tid.(!j) <- sh.sc_tid.(!j - 1);
          sh.sc_iter.(!j) <- sh.sc_iter.(!j - 1);
          sh.sc_tick.(!j) <- sh.sc_tick.(!j - 1);
          decr j
        done;
        sh.sc_tid.(!j) <- k;
        sh.sc_iter.(!j) <- it;
        sh.sc_tick.(!j) <- tk;
        incr n
      end;
      sh.r_iters.(base + k) <- no_entry
    end
  done;
  for j = 0 to !n - 1 do
    Deps.add deps ~tid:sh.sc_tid.(j) ~iter:sh.sc_iter.(j)
  done;
  sh.wtids.(addr) <- tid;
  sh.witers.(addr) <- iter
