(* Naive index-expression interpreter: walks the tree on every call and
   loads through [Memory.get_int], looking each array up by name.  The
   executable specification [Xinv_ir.Expr.compile] must match value for
   value and exception for exception (OCaml evaluates [apply]'s arguments
   right to left, so a binary node's right operand raises first). *)

module Ir = Xinv_ir
module E = Xinv_ir.Expr

let apply op a b =
  match op with
  | E.Add -> a + b
  | E.Sub -> a - b
  | E.Mul -> a * b
  | E.Div -> if b = 0 then invalid_arg "Expr.eval: division by zero" else a / b
  | E.Mod -> if b = 0 then invalid_arg "Expr.eval: modulo by zero" else a mod b
  | E.Min -> Stdlib.min a b
  | E.Max -> Stdlib.max a b

let rec eval env = function
  | E.Const k -> k
  | E.Ivar -> env.Ir.Env.j_inner
  | E.Ovar -> env.Ir.Env.t_outer
  | E.Param p -> Ir.Env.param env p
  | E.Load (a, ix) -> Ir.Memory.get_int env.Ir.Env.mem a (eval env ix)
  | E.Bin (op, x, y) -> apply op (eval env x) (eval env y)

(* The flat address of an access, bounds-checked by name lookups. *)
let addr env mem (a : Ir.Access.t) =
  let i = eval env a.Ir.Access.index and size = Ir.Memory.size mem a.Ir.Access.base in
  if i < 0 || i >= size then
    invalid_arg
      (Printf.sprintf "Footprint: %s[%d] out of bounds (size %d)" a.Ir.Access.base i size);
  Ir.Memory.base mem a.Ir.Access.base + i
