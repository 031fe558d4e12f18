let hash01 salt t j =
  let z = Int64.of_int (((salt * 0x9E3779B9) + (t * 0x85EBCA6B)) lxor (j * 0xC2B2AE35)) in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.logxor z (Int64.shift_right_logical z 27) in
  let r = Int64.to_float (Int64.shift_right_logical z 11) in
  r /. 9007199254740992.0

let jittered ~base ?(spread = 0.5) ~salt (env : Xinv_ir.Env.t) =
  let h = hash01 salt env.Xinv_ir.Env.t_outer env.Xinv_ir.Env.j_inner in
  base *. (1. +. (spread *. ((2. *. h) -. 1.)))

let modulus = 1048576.0

let mix x k = Float.rem ((3.0 *. x) +. k) modulus

let distinct_ints rng ~bound ~n =
  assert (n <= bound);
  let seen = Hashtbl.create (2 * n) in
  let out = Array.make n 0 in
  let i = ref 0 in
  while !i < n do
    let v = Xinv_util.Prng.int rng bound in
    if not (Hashtbl.mem seen v) then begin
      Hashtbl.replace seen v ();
      out.(!i) <- v;
      incr i
    end
  done;
  out

let permutation rng n =
  let a = Array.init n (fun i -> i) in
  Xinv_util.Prng.shuffle rng a;
  a

(* Single-slot memo keyed on the memory's physical identity.  Workload exec
   closures resolve their backing arrays through this, so the Hashtbl name
   lookup happens once per (closure, memory) pair instead of once per
   access.  The slot is an Atomic because native workers share the closure
   across domains: a racing fill recomputes the same handles (resolution is
   pure), so last-write-wins is harmless. *)
let memo f =
  let slot = Atomic.make None in
  fun mem ->
    match Atomic.get slot with
    | Some (m, v) when m == mem -> v
    | _ ->
        let v = f mem in
        Atomic.set slot (Some (mem, v));
        v

let index e =
  let at = memo (fun mem -> Xinv_ir.Expr.compile mem e) in
  fun env -> at env.Xinv_ir.Env.mem env

(* A workload's program per input size, built under the table's lock so
   that every caller, on any domain, gets the same program object. *)
let memo_by key build =
  let progs = Hashtbl.create 3 and mu = Mutex.create () in
  fun input ->
    let k = key input in
    Mutex.protect mu (fun () ->
        match Hashtbl.find_opt progs k with
        | Some p -> p
        | None ->
            let p = build input in
            Hashtbl.replace progs k p;
            p)
