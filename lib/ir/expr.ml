type binop = Add | Sub | Mul | Div | Mod | Min | Max

type t =
  | Const of int
  | Ivar
  | Ovar
  | Param of string
  | Load of string * t
  | Bin of binop * t * t

let apply op a b =
  match op with
  | Add -> a + b
  | Sub -> a - b
  | Mul -> a * b
  | Div -> if b = 0 then invalid_arg "Expr.eval: division by zero" else a / b
  | Mod -> if b = 0 then invalid_arg "Expr.eval: modulo by zero" else a mod b
  | Min -> if a <= b then a else b
  | Max -> if a >= b then a else b

(* One closure per node, built once: each [Load] holds its array, and a
   binary node runs its right operand first, as OCaml evaluates
   arguments.  A load still reports to an installed observer. *)
let compile mem e =
  let rec go = function
    | Const k -> fun _ -> k
    | Ivar -> fun env -> env.Env.j_inner
    | Ovar -> fun env -> env.Env.t_outer
    | Param p -> fun env -> Env.param env p
    | Load (a, ix) ->
        let ix = go ix and data = Memory.int_data mem a in
        fun env ->
          let i = ix env in
          if Memory.observed mem then Memory.get_int mem a i else data.(i)
    | Bin (op, x, y) ->
        let y = go y in
        let x = go x in
        fun env ->
          let b = y env in
          apply op (x env) b
  in
  go e

let op_str = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "%"
  | Min -> "min"
  | Max -> "max"

let rec pp ppf = function
  | Const k -> Format.fprintf ppf "%d" k
  | Ivar -> Format.fprintf ppf "j"
  | Ovar -> Format.fprintf ppf "t"
  | Param p -> Format.fprintf ppf "%s" p
  | Load (a, ix) -> Format.fprintf ppf "%s[%a]" a pp ix
  | Bin ((Min | Max) as op, x, y) ->
      Format.fprintf ppf "%s(%a, %a)" (op_str op) pp x pp y
  | Bin (op, x, y) -> Format.fprintf ppf "(%a %s %a)" pp x (op_str op) pp y

let to_string e = Format.asprintf "%a" pp e

let rec loads = function
  | Const _ | Ivar | Ovar | Param _ -> []
  | Load (a, ix) -> (a, ix) :: loads ix
  | Bin (_, x, y) -> loads x @ loads y

let rec uses_ivar = function
  | Ivar -> true
  | Const _ | Ovar | Param _ -> false
  | Load (_, ix) -> uses_ivar ix
  | Bin (_, x, y) -> uses_ivar x || uses_ivar y

let rec uses_ovar = function
  | Ovar -> true
  | Const _ | Ivar | Param _ -> false
  | Load (_, ix) -> uses_ovar ix
  | Bin (_, x, y) -> uses_ovar x || uses_ovar y

let ( + ) a b = Bin (Add, a, b)

let ( - ) a b = Bin (Sub, a, b)

let ( * ) a b = Bin (Mul, a, b)

let ( mod ) a b = Bin (Mod, a, b)

let i = Ivar

let o = Ovar

let c k = Const k

let ld a ix = Load (a, ix)

let op_tag = function
  | Add -> 0
  | Sub -> 1
  | Mul -> 2
  | Div -> 3
  | Mod -> 4
  | Min -> 5
  | Max -> 6

let rec feed fi fs = function
  | Const k ->
      fi 1;
      fi k
  | Ivar -> fi 2
  | Ovar -> fi 3
  | Param p ->
      fi 4;
      fs p
  | Load (a, ix) ->
      fi 5;
      fs a;
      feed fi fs ix
  | Bin (op, x, y) ->
      fi 6;
      fi (op_tag op);
      feed fi fs x;
      feed fi fs y

let rec size = function
  | Const _ | Ivar | Ovar | Param _ -> 1
  | Load (_, ix) -> Stdlib.( + ) 1 (size ix)
  | Bin (_, x, y) -> Stdlib.( + ) 1 (Stdlib.( + ) (size x) (size y))
