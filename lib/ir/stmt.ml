type t = {
  sid : int;
  name : string;
  reads : Access.t list;
  writes : Access.t list;
  commutes : bool;
  side_effect : bool;
  cost : Env.t -> float;
  exec : Env.t -> unit;
}

(* Atomic: programs may be built on several domains at once. *)
let counter = Atomic.make 1

let fixed_cost c _ = c

let make ?(reads = []) ?(writes = []) ?(commutes = false) ?(side_effect = false)
    ?(cost = fixed_cost 0.) ?(exec = fun _ -> ()) name =
  { sid = Atomic.fetch_and_add counter 1; name; reads; writes; commutes; side_effect; cost; exec }

let accesses s = s.reads @ s.writes

let index_arrays s =
  accesses s
  |> List.concat_map (fun (a : Access.t) -> Expr.loads a.Access.index)
  |> List.map fst
  |> List.sort_uniq String.compare

let feed_structure fi fs s =
  fi 8;
  fi (if s.commutes then 1 else 0);
  fi (if s.side_effect then 1 else 0);
  fi (List.length s.reads);
  List.iter (Access.feed fi fs) s.reads;
  fi (List.length s.writes);
  List.iter (Access.feed fi fs) s.writes

let pp ppf s =
  let pp_list ppf l =
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
      Access.pp ppf l
  in
  Format.fprintf ppf "@[<h>%s#%d: reads {%a} writes {%a}%s%s@]" s.name s.sid pp_list
    s.reads pp_list s.writes
    (if s.commutes then " [commutes]" else "")
    (if s.side_effect then " [side-effect]" else "")
