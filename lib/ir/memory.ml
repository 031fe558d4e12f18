type contents = I of int array | F of float array

type entry = { ebase : int; data : contents }

type t = {
  tbl : (string, entry) Hashtbl.t;
  mutable next_base : int;
  order : string list ref;
  mutable observer : (write:bool -> string -> int -> unit) option;
}

type spec = Ints of string * int array | Floats of string * float array

let create specs =
  let t = { tbl = Hashtbl.create 16; next_base = 0; order = ref []; observer = None } in
  List.iter
    (fun spec ->
      let name, data, len =
        match spec with
        | Ints (n, a) -> (n, I (Array.copy a), Array.length a)
        | Floats (n, a) -> (n, F (Array.copy a), Array.length a)
      in
      assert (not (Hashtbl.mem t.tbl name));
      Hashtbl.replace t.tbl name { ebase = t.next_base; data };
      t.order := name :: !(t.order);
      t.next_base <- t.next_base + len)
    specs;
  t.order := List.rev !(t.order);
  t

let names m = !(m.order)

let entry m name =
  match Hashtbl.find_opt m.tbl name with
  | Some e -> e
  | None -> invalid_arg (Printf.sprintf "Memory: unknown array %s" name)

let base m name = (entry m name).ebase

let size m name =
  match (entry m name).data with I a -> Array.length a | F a -> Array.length a

let observe m ~write name i =
  match m.observer with Some f -> f ~write name i | None -> ()

let get_int m name i =
  observe m ~write:false name i;
  match (entry m name).data with
  | I a -> a.(i)
  | F _ -> invalid_arg (Printf.sprintf "Memory.get_int: %s is a float array" name)

let set_int m name i v =
  observe m ~write:true name i;
  match (entry m name).data with
  | I a -> a.(i) <- v
  | F _ -> invalid_arg (Printf.sprintf "Memory.set_int: %s is a float array" name)

let get_float m name i =
  observe m ~write:false name i;
  match (entry m name).data with
  | F a -> a.(i)
  | I _ -> invalid_arg (Printf.sprintf "Memory.get_float: %s is an int array" name)

let set_float m name i v =
  observe m ~write:true name i;
  match (entry m name).data with
  | F a -> a.(i) <- v
  | I _ -> invalid_arg (Printf.sprintf "Memory.set_float: %s is an int array" name)

let observed m = match m.observer with Some _ -> true | None -> false

let is_int m name = match (entry m name).data with I _ -> true | F _ -> false

let int_data m name =
  match (entry m name).data with
  | I a -> a
  | F _ -> invalid_arg (Printf.sprintf "Memory.int_data: %s is a float array" name)

let float_data m name =
  match (entry m name).data with
  | F a -> a
  | I _ -> invalid_arg (Printf.sprintf "Memory.float_data: %s is an int array" name)

let snapshot m =
  let t =
    { tbl = Hashtbl.create 16; next_base = m.next_base; order = ref !(m.order); observer = None }
  in
  Hashtbl.iter
    (fun name e ->
      let data = match e.data with I a -> I (Array.copy a) | F a -> F (Array.copy a) in
      Hashtbl.replace t.tbl name { ebase = e.ebase; data })
    m.tbl;
  t

let restore ~dst ~src =
  List.iter
    (fun name ->
      let d = entry dst name and s = entry src name in
      match (d.data, s.data) with
      | I da, I sa -> Array.blit sa 0 da 0 (Array.length sa)
      | F da, F sa -> Array.blit sa 0 da 0 (Array.length sa)
      | _ -> invalid_arg "Memory.restore: layout mismatch")
    (names src)

let total_words m =
  List.fold_left (fun acc n -> acc + size m n) 0 (names m)

let diff a b =
  let out = ref [] in
  List.iter
    (fun name ->
      let ea = entry a name in
      match (ea.data, (entry b name).data) with
      | I xa, I xb ->
          Array.iteri (fun i v -> if v <> xb.(i) then out := (name, i) :: !out) xa
      | F xa, F xb ->
          Array.iteri (fun i v -> if v <> xb.(i) then out := (name, i) :: !out) xa
      | _ -> out := (name, -1) :: !out)
    (names a);
  List.rev !out

module Ba = Bigarray.Array1

type frozen_data =
  | Fi of (int, Bigarray.int_elt, Bigarray.c_layout) Ba.t
  | Ff of (float, Bigarray.float64_elt, Bigarray.c_layout) Ba.t

(* Outside the OCaml heap: a copy kept for the life of the process would
   otherwise count toward the heap size the collector paces itself by. *)
type frozen = (string * frozen_data) list

let freeze m =
  List.map
    (fun name ->
      ( name,
        match (entry m name).data with
        | I a -> Fi (Ba.of_array Bigarray.int Bigarray.c_layout a)
        | F a -> Ff (Ba.of_array Bigarray.float64 Bigarray.c_layout a) ))
    (names m)

(* The same comparisons, in the same order, as [diff]. *)
let diff_frozen f b =
  let out = ref [] in
  List.iter
    (fun (name, fa) ->
      match (fa, (entry b name).data) with
      | Fi xa, I xb ->
          for i = 0 to Ba.dim xa - 1 do
            if xa.{i} <> xb.(i) then out := (name, i) :: !out
          done
      | Ff xa, F xb ->
          for i = 0 to Ba.dim xa - 1 do
            if xa.{i} <> xb.(i) then out := (name, i) :: !out
          done
      | _ -> out := (name, -1) :: !out)
    f;
  List.rev !out

let equal a b =
  try names a = names b && diff a b = [] with Invalid_argument _ -> false

let bounds m = Array.of_list (List.map (base m) (names m))

let to_specs m =
  List.map
    (fun name ->
      match (entry m name).data with
      | I a -> Ints (name, Array.copy a)
      | F a -> Floats (name, Array.copy a))
    (names m)

let set_observer obs m = m.observer <- obs
