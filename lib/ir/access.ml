type t = { base : string; index : Expr.t }

let make base index = { base; index }

let pp ppf a = Format.fprintf ppf "%s[%a]" a.base Expr.pp a.index

let affine a = Affine.of_expr a.index

let irregular a = affine a = None

let may_conflict a b =
  String.equal a.base b.base
  &&
  match (affine a, affine b) with
  | Some fa, Some fb -> Affine.overlaps_some_iteration fa fb
  | _ -> true

let feed fi fs a =
  fi 7;
  fs a.base;
  Expr.feed fi fs a.index

let same_iteration_only a b =
  String.equal a.base b.base
  &&
  match (affine a, affine b) with
  | Some fa, Some fb -> Affine.same_iteration_only fa fb
  | _ -> false
