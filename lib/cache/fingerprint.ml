module Ir = Xinv_ir

type t = { lo : int64; hi : int64 }

(* FNV-1a over the token stream, two independent lanes.  Self-implemented
   (not [Hashtbl.hash]) so the value is pinned by this file, not by the
   OCaml runtime — stability across processes and compiler versions is what
   makes an on-disk cache keyed by it valid.  Changing the traversal or the
   mixing below is a cache-schema change: bump {!Artifact.schema_version}. *)

let fnv_offset = 0xcbf29ce484222325L
let fnv_offset2 = 0x84222325cbf29ce4L
let fnv_prime = 0x100000001b3L

type state = { mutable h1 : int64; mutable h2 : int64 }

let byte st b =
  st.h1 <- Int64.mul (Int64.logxor st.h1 (Int64.of_int (b land 0xff))) fnv_prime;
  st.h2 <-
    Int64.mul (Int64.logxor st.h2 (Int64.of_int ((b lxor 0xa5) land 0xff))) fnv_prime

let int64 st v =
  for k = 0 to 7 do
    byte st (Int64.to_int (Int64.shift_right_logical v (8 * k)))
  done

let int st v = int64 st (Int64.of_int v)

(* One traversal drives both the hash and the name vector.  Names are
   canonicalized to first-occurrence ordinals before hashing, so the hash is
   name-insensitive; the actual names are collected for alias validation. *)
let traverse (p : Ir.Program.t) (env : Ir.Env.t) ~fi =
  let ids = Hashtbl.create 16 in
  let order = ref [] in
  let fs s =
    match Hashtbl.find_opt ids s with
    | Some id -> fi id
    | None ->
        let id = Hashtbl.length ids in
        Hashtbl.add ids s id;
        order := s :: !order;
        fi id
  in
  let ffloat f = fi (Int64.to_int (Int64.bits_of_float f)) in
  (* 1. Static structure: footprints, flags, expression trees. *)
  Ir.Program.feed_structure fi fs p;
  (* 2. Closure probes: trip counts and cost samples at canonical points.
     The closures themselves are unhashable; what analysis consumes of them
     (iteration counts, the guard's cost ratio, profiling trip structure) is
     covered by sampling a few (outer, inner) coordinates against the
     initial environment.  Never calls [exec]; cost/trip must not modify it. *)
  let probe_ts =
    List.sort_uniq compare
      [ 0; 1; p.Ir.Program.outer_trip / 2; p.Ir.Program.outer_trip - 1 ]
    |> List.filter (fun t -> t >= 0 && t < p.Ir.Program.outer_trip)
  in
  List.iter
    (fun t ->
      let env_t = Ir.Env.with_outer env t in
      List.iter
        (fun (il : Ir.Program.inner) ->
          let trip = il.Ir.Program.trip env_t in
          fi 11;
          fi trip;
          List.iter
            (fun j ->
              if j >= 0 && j < trip then begin
                let env_j = Ir.Env.with_inner env_t j in
                List.iter
                  (fun (s : Ir.Stmt.t) -> ffloat (s.Ir.Stmt.cost env_j))
                  il.Ir.Program.body
              end)
            [ 0; 1; trip - 1 ])
        p.Ir.Program.inners)
    probe_ts;
  (* 3. Problem size and access-pattern data: memory layout in address
     order, with full contents for integer arrays (index arrays, graph
     adjacency, particle grids — what runtime analysis actually reads) and
     kind+extent only for float arrays (value data cannot steer analysis). *)
  let mem = env.Ir.Env.mem in
  List.iter
    (fun a ->
      fs a;
      fi (Ir.Memory.size mem a);
      if Ir.Memory.is_int mem a then begin
        fi 12;
        Array.iter fi (Ir.Memory.int_data mem a)
      end
      else fi 13)
    (Ir.Memory.names mem);
  (* 4. Runtime parameters. *)
  List.iter
    (fun (name, v) ->
      fi 14;
      fs name;
      fi v)
    env.Ir.Env.params;
  List.rev !order

let keyed p env =
  let st = { h1 = fnv_offset; h2 = fnv_offset2 } in
  let names = traverse p env ~fi:(int st) in
  ({ lo = st.h1; hi = st.h2 }, names)

let key p env = fst (keyed p env)

let name_vector p env = traverse p env ~fi:(fun _ -> ())

let to_hex t = Printf.sprintf "%016Lx%016Lx" t.hi t.lo

let of_hex s =
  if String.length s <> 32 then None
  else
    match
      ( Int64.of_string ("0x" ^ String.sub s 0 16),
        Int64.of_string ("0x" ^ String.sub s 16 16) )
    with
    | hi, lo -> Some { lo; hi }
    | exception _ -> None

let equal a b = Int64.equal a.lo b.lo && Int64.equal a.hi b.hi

let pp ppf t = Format.pp_print_string ppf (to_hex t)
