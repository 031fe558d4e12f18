(* Statistics over raw samples.  Percentiles are never read off histogram
   buckets: every reported percentile is a recorded sample. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile: the smallest sample with at least [p]% of the
   samples at or below it. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let p50 = percentile 50.

(* Median with the two middle samples averaged, as Python's
   [statistics.median]. *)
let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* First and third quartile by Python's [statistics.quantiles(xs, n=4)]
   (the "exclusive" method), so spreads match the ones computed from the
   same values in Python. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then (nan, nan)
  else if ld = 1 then (a.(0), a.(0))
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 3)

(* Interquartile range as a share of the median. *)
let spread xs =
  let q1, q3 = quartiles xs in
  let m = median xs in
  if m = 0. then 0. else Float.abs ((q3 -. q1) /. m)

let sum = List.fold_left ( +. ) 0.

let geomean xs =
  match List.filter (fun x -> x > 0.) xs with
  | [] -> nan
  | pos -> Xinv_util.Stats.geomean pos

let ratio a b = if b = 0. then 0. else a /. b
