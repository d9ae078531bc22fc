type pos = { line : int; col : int }

type binop =
  | Add | Sub | Mul | Div | Rem
  | And | Or | Xor | Shl | Shr
  | Lt | Le | Gt | Ge | Eq | Ne
  | Land | Lor

type expr =
  | Int of int
  | Var of string * pos
  | Index of string * expr * pos
  | Bin of binop * expr * expr
  | Neg of expr
  | Ternary of expr * expr * expr

type stmt =
  | Decl of string * expr * pos
  | Assign of string * expr * pos
  | Store of string * expr * expr * pos
  | If of expr * block * block
  | For of { var : string; init : expr; limit : expr; step : int; body : block; pos : pos }
  | DoWhile of block * expr

and block = stmt list

type array_init =
  | Zero
  | Random of int * int * int
  | Fill of expr

type decl = {
  arr_name : string;
  arr_size : int;
  arr_init : array_init;
  arr_pos : pos;
}

type region = { reg_name : string; reg_body : block; reg_pos : pos }

type program = {
  prog_name : string;
  decls : decl list;
  regions : region list;
}

(* --- Printing: parenthesise fully, so re-parsing is trivially faithful. --- *)

let binop_name = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Rem -> "%"
  | And -> "&" | Or -> "|" | Xor -> "^" | Shl -> "<<" | Shr -> ">>"
  | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">=" | Eq -> "==" | Ne -> "!="
  | Land -> "&&" | Lor -> "||"

let rec add_expr buf = function
  | Int i -> Printf.bprintf buf (if i < 0 then "(%d)" else "%d") i
  | Var (x, _) -> Buffer.add_string buf x
  | Index (a, e, _) -> Printf.bprintf buf "%s[%a]" a add_expr e
  | Bin (op, a, b) ->
    Printf.bprintf buf "(%a %s %a)" add_expr a (binop_name op) add_expr b
  | Neg e -> Printf.bprintf buf "(-%a)" add_expr e
  | Ternary (c, t, e) ->
    Printf.bprintf buf "(%a ? %a : %a)" add_expr c add_expr t add_expr e

(* A statement starting at column [ind]. A nested block's statements sit
   on their own lines 2 columns in (an empty block is one blank line),
   and its closing brace on a new line back at [ind]. *)
let rec add_stmt ind buf = function
  | Decl (x, e, _) -> Printf.bprintf buf "var %s = %a;" x add_expr e
  | Assign (x, e, _) -> Printf.bprintf buf "%s = %a;" x add_expr e
  | Store (a, i, v, _) -> Printf.bprintf buf "%s[%a] = %a;" a add_expr i add_expr v
  | If (c, t, []) -> Printf.bprintf buf "if (%a) {%a}" add_expr c (add_body ind) t
  | If (c, t, e) ->
    Printf.bprintf buf "if (%a) {%a} else {%a}" add_expr c (add_body ind) t
      (add_body ind) e
  | For { var; init; limit; step; body; _ } ->
    Printf.bprintf buf "for (%s = %a; %s < %a; %s += %d) {%a}" var add_expr init var
      add_expr limit var step (add_body ind) body
  | DoWhile (body, cond) ->
    Printf.bprintf buf "do {%a} while (%a);" (add_body ind) body add_expr cond

and add_body ind buf block =
  let newline ind =
    Buffer.add_char buf '\n';
    Buffer.add_string buf (String.make ind ' ')
  in
  if block = [] then newline (ind + 2);
  List.iter
    (fun st ->
      newline (ind + 2);
      add_stmt (ind + 2) buf st)
    block;
  newline ind

let expr_to_string e =
  let buf = Buffer.create 64 in
  add_expr buf e;
  Buffer.contents buf

let to_string p =
  let buf = Buffer.create 4096 in
  List.iter
    (fun d ->
      Printf.bprintf buf "array %s[%d]" d.arr_name d.arr_size;
      (match d.arr_init with
      | Zero -> ()
      | Random (lo, hi, seed) -> Printf.bprintf buf " = random(%d, %d, %d)" lo hi seed
      | Fill e -> Printf.bprintf buf " = fill(%a)" add_expr e);
      Buffer.add_string buf ";\n")
    p.decls;
  List.iter
    (fun r -> Printf.bprintf buf "region %s {%a}\n" r.reg_name (add_body 0) r.reg_body)
    p.regions;
  Buffer.contents buf
