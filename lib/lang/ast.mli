(** Abstract syntax of VC ("Voltron C"), the small C-like language the
    toolchain accepts as source (the paper compiles C through Trimaran;
    this is our equivalent front door). See [lib/lang/README] in
    [frontend.mli] for the grammar, and [examples/programs/] for real
    programs.

    All values are machine integers. Positions are byte-oriented
    line/column pairs used in error messages. *)

type pos = { line : int; col : int }

type binop =
  | Add | Sub | Mul | Div | Rem
  | And | Or | Xor | Shl | Shr
  | Lt | Le | Gt | Ge | Eq | Ne
  | Land | Lor  (** logical and/or over 0/1 values; NOT short-circuit *)

type expr =
  | Int of int
  | Var of string * pos
  | Index of string * expr * pos  (** array element read *)
  | Bin of binop * expr * expr
  | Neg of expr
  | Ternary of expr * expr * expr

type stmt =
  | Decl of string * expr * pos  (** var x = e; *)
  | Assign of string * expr * pos  (** x = e; *)
  | Store of string * expr * expr * pos  (** a[e1] = e2; *)
  | If of expr * block * block
  | For of { var : string; init : expr; limit : expr; step : int; body : block; pos : pos }
  | DoWhile of block * expr

and block = stmt list

type array_init =
  | Zero
  | Random of int * int * int  (** lo, hi, seed *)
  | Fill of expr  (** element formula over the index variable [i] *)

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

val expr_to_string : expr -> string
(** Fully parenthesised concrete syntax of an expression. *)

val to_string : program -> string
(** Re-printable concrete syntax: [parse (to_string p)] elaborates to the
    same program (exercised by the round-trip property tests). Nested
    blocks indent by 2 columns; an empty block prints as one line of
    blanks. *)
