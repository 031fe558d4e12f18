type t = Off | Spin of float

(* One spin unit is a data-dependent float multiply-add chain the compiler
   cannot collapse; [Sys.opaque_identity] keeps it live. *)
let spin_units n =
  let x = ref 1.0 in
  for _ = 1 to n do
    x := Float.fma !x 1.0000001 1e-9
  done;
  ignore (Sys.opaque_identity !x)

(* ns per spin unit, measured once on first use.  Not a [lazy]: forcing
   those concurrently from several domains is unsafe, whereas a racy
   double-measurement is merely redundant. *)
let cached = Atomic.make 0.0

let measure () =
  let calib = 2_000_000 in
  spin_units calib;
  (* warm *)
  let t0 = Unix.gettimeofday () in
  spin_units calib;
  let dt = Unix.gettimeofday () -. t0 in
  let m = Float.max 0.05 (1e9 *. dt /. float_of_int calib) in
  Atomic.set cached m;
  m

let ns_per_unit () =
  let v = Atomic.get cached in
  if v > 0. then v else measure ()

let calibrated_spin ~ns_per_cycle =
  ignore (ns_per_unit ());
  Spin ns_per_cycle

let burn w cycles =
  match w with
  | Off -> ()
  | Spin ns_per_cycle ->
      if cycles > 0. then begin
        let units = cycles *. ns_per_cycle /. ns_per_unit () in
        if units >= 1. then spin_units (int_of_float units)
      end

let exec w env (s : Xinv_ir.Stmt.t) =
  burn w (s.Xinv_ir.Stmt.cost env);
  s.Xinv_ir.Stmt.exec env
