(* Naive shadow memory (assoc lists, Hashtbl): the executable specification
   [Xinv_runtime.Shadow] must match dependence-for-dependence, order
   included.  Each note returns the prior conflicting accesses by other
   workers, duplicates kept: a read the last write; a write the last write,
   then the latest read per worker, most recent first. *)

type slot = { mutable w : (int * int) option; mutable rs : (int * int) list }

type t = (int, slot) Hashtbl.t

let create () : t = Hashtbl.create 64

let slot sh addr =
  match Hashtbl.find_opt sh addr with
  | Some s -> s
  | None ->
      let s = { w = None; rs = [] } in
      Hashtbl.replace sh addr s;
      s

let foreign tid = function Some (t, i) when t <> tid -> [ (t, i) ] | _ -> []

let note_read sh addr ~tid ~iter =
  let s = slot sh addr in
  let deps = foreign tid s.w in
  let rest = List.remove_assoc tid s.rs in
  let prev = try List.assoc tid s.rs with Not_found -> min_int in
  s.rs <- (tid, Stdlib.max prev iter) :: rest;
  deps

let note_write sh addr ~tid ~iter =
  let s = slot sh addr in
  let readers = List.filter (fun (t, _) -> t <> tid) s.rs in
  let deps = foreign tid s.w @ readers in
  s.w <- Some (tid, iter);
  s.rs <- [];
  deps

(* The distinct pairs of [found], first occurrence kept: what a
   [Shadow.Deps] accumulator holds after the same notes. *)
let dedup found =
  List.rev
    (List.fold_left (fun acc c -> if List.mem c acc then acc else c :: acc) [] found)
