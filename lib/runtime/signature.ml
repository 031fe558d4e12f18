type kind =
  | Range
  | Segmented of int array
  | Bloom of { bits : int; hashes : int }
  | Exact

type repr =
  | R_range of { mutable lo : int; mutable hi : int }
  | R_seg of { bounds : int array; lo : int array; hi : int array }
      (* per-segment min/max accessed address; empty segment iff lo > hi *)
  | R_bloom of { bits : int; hashes : int; words : int array; pow2mask : int }
      (* pow2mask = bits - 1 when bits is a power of two (bit index by [land]
         instead of [mod]), 0 otherwise *)
  | R_exact of (int, unit) Hashtbl.t

(* Index of the segment containing [addr]: greatest i with bounds.(i) <= addr.
   Out-of-range addresses clamp to the first segment, so a workload address
   below bounds.(0) degrades precision (the first segment's range widens)
   instead of crashing. *)
let segment_of bounds addr =
  assert (Array.length bounds > 0);
  if addr < bounds.(0) then 0
  else begin
    let lo = ref 0 and hi = ref (Array.length bounds - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if bounds.(mid) <= addr then lo := mid else hi := mid - 1
    done;
    !lo
  end

type t = { k : kind; repr : repr; mutable adds : int }

let create k =
  let repr =
    match k with
    | Range -> R_range { lo = max_int; hi = min_int }
    | Segmented bounds ->
        assert (Array.length bounds > 0);
        let n = Array.length bounds in
        R_seg { bounds; lo = Array.make n max_int; hi = Array.make n min_int }
    | Bloom { bits; hashes } ->
        assert (bits > 0 && hashes > 0);
        let pow2mask = if bits land (bits - 1) = 0 then bits - 1 else 0 in
        (* 32 bits per word: word/bit indexing is a shift and a mask, no
           integer division.  Word grouping does not affect which bit
           positions are set, so the filter's precision is unchanged. *)
        R_bloom { bits; hashes; words = Array.make (((bits - 1) lsr 5) + 1) 0; pow2mask }
    | Exact -> R_exact (Hashtbl.create 64)
  in
  { k; repr; adds = 0 }

let kind t = t.k

(* All-int avalanche (no Int64 boxing).  Constants fit OCaml's 63-bit ints. *)
let mix x =
  let x = x lxor (x lsr 33) in
  let x = x * 0x2545F4914F6CDD1D in
  let x = x lxor (x lsr 29) in
  let x = x * 0x1B03738712FAD5C9 in
  (x lxor (x lsr 32)) land max_int

(* Double hashing: two mixes give every probe, instead of one full avalanche
   round per hash function.  The stride is forced odd, so when [bits] is a
   power of two the probe positions never collapse onto one bit. *)
let bloom_set words bits hashes pow2mask addr =
  let h1 = mix (addr * 0x9E3779B9) in
  let h2 = mix (addr lxor 0x85EBCA6B) lor 1 in
  let h = ref h1 in
  for _ = 1 to hashes do
    let b = if pow2mask <> 0 then !h land pow2mask else !h mod bits in
    words.(b lsr 5) <- words.(b lsr 5) lor (1 lsl (b land 31));
    h := (!h + h2) land max_int
  done

let add t addr =
  t.adds <- t.adds + 1;
  match t.repr with
  | R_range r ->
      if addr < r.lo then r.lo <- addr;
      if addr > r.hi then r.hi <- addr
  | R_seg sgm ->
      let seg = segment_of sgm.bounds addr in
      if addr < sgm.lo.(seg) then sgm.lo.(seg) <- addr;
      if addr > sgm.hi.(seg) then sgm.hi.(seg) <- addr
  | R_bloom b -> bloom_set b.words b.bits b.hashes b.pow2mask addr
  | R_exact h -> Hashtbl.replace h addr ()

let add_list t addrs = List.iter (add t) addrs

let add_array t addrs =
  for i = 0 to Array.length addrs - 1 do
    add t addrs.(i)
  done

let add_iter t f = f (add t)

let count t = t.adds

let is_empty t = t.adds = 0

exception Hit

let intersects a b =
  if is_empty a || is_empty b then false
  else
    match (a.repr, b.repr) with
    | R_range ra, R_range rb -> ra.lo <= rb.hi && rb.lo <= ra.hi
    | R_seg sa, R_seg sb ->
        let n = Stdlib.min (Array.length sa.lo) (Array.length sb.lo) in
        let i = ref 0 and hit = ref false in
        while (not !hit) && !i < n do
          let s = !i in
          if sa.lo.(s) <= sb.hi.(s) && sb.lo.(s) <= sa.hi.(s) then hit := true;
          incr i
        done;
        !hit
    | R_bloom ba, R_bloom bb ->
        assert (ba.bits = bb.bits && ba.hashes = bb.hashes);
        (* Conservative: an address present in both sets every one of its
           bits in both filters; we test whether any word shares bits, which
           over-approximates membership overlap. *)
        let wa = ba.words and wb = bb.words in
        let n = Array.length wa in
        let i = ref 0 and hit = ref false in
        while (not !hit) && !i < n do
          if wa.(!i) land wb.(!i) <> 0 then hit := true;
          incr i
        done;
        !hit
    | R_exact ha, R_exact hb -> (
        let small, large =
          if Hashtbl.length ha <= Hashtbl.length hb then (ha, hb) else (hb, ha)
        in
        try
          Hashtbl.iter (fun addr () -> if Hashtbl.mem large addr then raise Hit) small;
          false
        with Hit -> true)
    | _ -> invalid_arg "Signature.intersects: kind mismatch"

let merge ~into src =
  match (into.repr, src.repr) with
  | R_range a, R_range b ->
      if b.lo < a.lo then a.lo <- b.lo;
      if b.hi > a.hi then a.hi <- b.hi;
      into.adds <- into.adds + src.adds
  | R_seg a, R_seg b ->
      let n = Stdlib.min (Array.length a.lo) (Array.length b.lo) in
      for s = 0 to n - 1 do
        if b.lo.(s) < a.lo.(s) then a.lo.(s) <- b.lo.(s);
        if b.hi.(s) > a.hi.(s) then a.hi.(s) <- b.hi.(s)
      done;
      into.adds <- into.adds + src.adds
  | R_bloom a, R_bloom b ->
      assert (a.bits = b.bits && a.hashes = b.hashes);
      for i = 0 to Array.length a.words - 1 do
        a.words.(i) <- a.words.(i) lor b.words.(i)
      done;
      into.adds <- into.adds + src.adds
  | R_exact a, R_exact b ->
      Hashtbl.iter (fun addr () -> Hashtbl.replace a addr ()) b;
      into.adds <- into.adds + src.adds
  | _ -> invalid_arg "Signature.merge: kind mismatch"
