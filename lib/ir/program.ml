type inner = {
  ilabel : string;
  trip : Env.t -> int;
  pre : Stmt.t list;
  body : Stmt.t list;
}

type t = { pname : string; outer_trip : int; inners : inner list }

let make ~name ~outer_trip inners =
  assert (outer_trip > 0);
  assert (inners <> []);
  { pname = name; outer_trip; inners }

let inner ?(pre = []) ~label ~trip body = { ilabel = label; trip; pre; body }

let const_trip n _ = n

let all_stmts p = List.concat_map (fun il -> il.pre @ il.body) p.inners

let body_stmts p = List.concat_map (fun il -> il.body) p.inners

let find_inner p label =
  match List.find_opt (fun il -> String.equal il.ilabel label) p.inners with
  | Some il -> il
  | None -> invalid_arg (Printf.sprintf "Program.find_inner: no inner loop %s" label)

let iteration_cost _p il env =
  List.fold_left (fun acc (s : Stmt.t) -> acc +. s.Stmt.cost env) 0. il.body

let invocations p = p.outer_trip * List.length p.inners

let total_iterations p env =
  let n = ref 0 in
  for t = 0 to p.outer_trip - 1 do
    let env_t = Env.with_outer env t in
    List.iter (fun il -> n := !n + il.trip env_t) p.inners
  done;
  !n

let feed_structure fi fs p =
  fi 9;
  fi p.outer_trip;
  fi (List.length p.inners);
  List.iter
    (fun il ->
      (* Inner labels are deliberately not fed: renaming a loop changes no
         analysis result, and cached artifacts key per-inner data by position,
         not label. *)
      fi 10;
      fi (List.length il.pre);
      List.iter (Stmt.feed_structure fi fs) il.pre;
      fi (List.length il.body);
      List.iter (Stmt.feed_structure fi fs) il.body)
    p.inners

let pp ppf p =
  Format.fprintf ppf "@[<v>program %s (outer trip %d)@," p.pname p.outer_trip;
  List.iter
    (fun il ->
      Format.fprintf ppf "  invocation %s:@," il.ilabel;
      List.iter (fun s -> Format.fprintf ppf "    pre  %a@," Stmt.pp s) il.pre;
      List.iter (fun s -> Format.fprintf ppf "    body %a@," Stmt.pp s) il.body)
    p.inners;
  Format.fprintf ppf "@]"
