type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create ~seed = { state = Int64.of_int seed }

let mix64 z0 =
  let z = Int64.mul (Int64.logxor z0 (Int64.shift_right_logical z0 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t = { state = next t }

let copy t = { state = t.state }

let int t bound =
  assert (bound > 0);
  (* Keep 62 bits so the value stays non-negative as a native int. *)
  let r = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  r mod bound

let int_in t lo hi =
  assert (hi >= lo);
  lo + int t (hi - lo + 1)

let float t bound =
  let r = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  bound *. (r /. 9007199254740992.0)

let bool t = Int64.logand (next t) 1L = 1L

let chance t p = float t 1.0 < p

let shuffle t arr =
  let n = Array.length arr in
  for i = n - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
