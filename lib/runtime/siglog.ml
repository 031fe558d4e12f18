type entry = { pos : int; epoch : int; sg : Signature.t }

(* One worker's log: live entries are [arr.(lo) .. arr.(len - 1)], in
   strictly ascending [pos], hence non-decreasing [epoch].  A record is never
   mutated; each slot of [arr] is written once, at the [len] of the record
   the store then replaces, and growing copies into a fresh array. *)
type log = { arr : entry array; lo : int; len : int }

type t = { logs : log array }

(* Fills unwritten slots.  Its [pos] and [epoch] sort after every entry, so
   a scan that reads a slot whose store it cannot see yet stops there. *)
let sentinel = { pos = max_int; epoch = max_int; sg = Signature.create Signature.Exact }

let create ~workers =
  assert (workers > 0);
  { logs = Array.make workers { arr = [||]; lo = 0; len = 0 } }

let store t ~worker ~pos ~epoch sg =
  let { arr; lo; len } = t.logs.(worker) in
  assert (len = lo || arr.(len - 1).pos < pos);
  let e = { pos; epoch; sg } in
  if len < Array.length arr then begin
    arr.(len) <- e;
    t.logs.(worker) <- { arr; lo; len = len + 1 }
  end
  else begin
    let live = len - lo in
    let arr' = Array.make (Stdlib.max 16 (2 * (live + 1))) sentinel in
    Array.blit arr lo arr' 0 live;
    arr'.(live) <- e;
    t.logs.(worker) <- { arr = arr'; lo = 0; len = live + 1 }
  end

let compare_window t ~worker ~after ~epoch ~upto sg =
  let { arr; lo; len } = t.logs.(worker) in
  (* First live entry past [after]. *)
  let rec first lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if arr.(mid).pos > after then first lo mid else first (mid + 1) hi
  in
  let rec scan i n hit =
    if i < len && arr.(i).epoch < upto then
      let e = arr.(i) in
      scan (i + 1) (n + 1) (hit || (e.epoch < epoch && Signature.intersects sg e.sg))
    else (n, hit)
  in
  scan (first lo len) 0 false

let prune t ~upto =
  Array.iteri
    (fun w ({ arr; lo; len } as l) ->
      let lo' = ref lo in
      while !lo' < len && arr.(!lo').epoch < upto do
        incr lo'
      done;
      if !lo' > lo then t.logs.(w) <- { l with lo = !lo' })
    t.logs

let clear t = Array.iteri (fun w l -> t.logs.(w) <- { l with lo = l.len }) t.logs
