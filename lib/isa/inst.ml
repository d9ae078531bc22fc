type core_id = int
type reg = int
type btr = int
type label = string

type dir = North | South | East | West

type recv_kind = Rv_data | Rv_pred | Rv_sync

type mode = Coupled | Decoupled

type alu_op =
  | Add | Sub | Mul | Div | Rem
  | And | Or | Xor | Shl | Shr
  | Min | Max

type fpu_op = Fadd | Fsub | Fmul | Fdiv

type cmp_op = Eq | Ne | Lt | Le | Gt | Ge

type operand = Reg of reg | Imm of int

type t =
  | Alu of { op : alu_op; dst : reg; src1 : operand; src2 : operand }
  | Fpu of { op : fpu_op; dst : reg; src1 : operand; src2 : operand }
  | Cmp of { op : cmp_op; dst : reg; src1 : operand; src2 : operand }
  | Select of { dst : reg; pred : operand; if_true : operand; if_false : operand }
  | Load of { dst : reg; base : operand; offset : operand }
  | Store of { base : operand; offset : operand; src : operand }
  | Mov of { dst : reg; src : operand }
  | Pbr of { btr : btr; target : label }
  | Br of { btr : btr; pred : operand option; invert : bool }
  | Bcast of { src : operand }
  | Getb of { dst : reg }
  | Put of { dir : dir; src : operand }
  | Get of { dir : dir; dst : reg }
  | Send of { target : core_id; src : operand }
  | Recv of { sender : core_id; dst : reg; kind : recv_kind }
  | Spawn of { target : core_id; entry : label }
  | Sleep
  | Mode_switch of mode
  | Tm_begin
  | Tm_commit
  | Halt
  | Nop

type unit_class = Compute | Memory | Commun | Control

let unit_class = function
  | Alu _ | Fpu _ | Cmp _ | Select _ | Mov _ -> Compute
  | Load _ | Store _ | Tm_begin | Tm_commit -> Memory
  | Bcast _ | Getb _ | Put _ | Get _ | Send _ | Recv _ | Spawn _ -> Commun
  | Pbr _ | Br _ | Sleep | Mode_switch _ | Halt | Nop -> Control

let operand_uses = function Reg r -> [ r ] | Imm _ -> []

let defs = function
  | Alu { dst; _ } | Fpu { dst; _ } | Cmp { dst; _ } | Select { dst; _ }
  | Load { dst; _ } | Mov { dst; _ } | Getb { dst } | Get { dst; _ }
  | Recv { dst; _ } ->
    [ dst ]
  | Store _ | Pbr _ | Br _ | Bcast _ | Put _ | Send _ | Spawn _ | Sleep
  | Mode_switch _ | Tm_begin | Tm_commit | Halt | Nop ->
    []

let uses = function
  | Alu { src1; src2; _ } | Fpu { src1; src2; _ } | Cmp { src1; src2; _ } ->
    operand_uses src1 @ operand_uses src2
  | Select { pred; if_true; if_false; _ } ->
    operand_uses pred @ operand_uses if_true @ operand_uses if_false
  | Load { base; offset; _ } -> operand_uses base @ operand_uses offset
  | Store { base; offset; src } ->
    operand_uses base @ operand_uses offset @ operand_uses src
  | Mov { src; _ } -> operand_uses src
  | Br { pred; _ } -> ( match pred with None -> [] | Some p -> operand_uses p)
  | Bcast { src } | Put { src; _ } | Send { src; _ } -> operand_uses src
  | Pbr _ | Getb _ | Get _ | Recv _ | Spawn _ | Sleep | Mode_switch _
  | Tm_begin | Tm_commit | Halt | Nop ->
    []

let is_branch = function Br _ -> true | _ -> false

(* Communication-out ops execute in the machine's phase 1, before any
   core's main phase, so same-cycle PUT/GET and BCAST pairing works. *)
let is_comm_out = function
  | Put _ | Bcast _ | Send _ | Spawn _ -> true
  | Alu _ | Fpu _ | Cmp _ | Select _ | Load _ | Store _ | Mov _ | Pbr _ | Br _
  | Getb _ | Get _ | Recv _ | Sleep | Mode_switch _ | Tm_begin | Tm_commit
  | Halt | Nop ->
    false

let opposite = function
  | North -> South
  | South -> North
  | East -> West
  | West -> East

let string_of_alu = function
  | Add -> "add" | Sub -> "sub" | Mul -> "mul" | Div -> "div" | Rem -> "rem"
  | And -> "and" | Or -> "or" | Xor -> "xor" | Shl -> "shl" | Shr -> "shr"
  | Min -> "min" | Max -> "max"

let string_of_fpu = function
  | Fadd -> "fadd" | Fsub -> "fsub" | Fmul -> "fmul" | Fdiv -> "fdiv"

let string_of_cmp = function
  | Eq -> "eq" | Ne -> "ne" | Lt -> "lt" | Le -> "le" | Gt -> "gt" | Ge -> "ge"

let string_of_dir = function
  | North -> "n" | South -> "s" | East -> "e" | West -> "w"

let dir_name = function
  | North -> "north" | South -> "south" | East -> "east" | West -> "west"

let pp_operand ppf = function
  | Reg r -> Format.fprintf ppf "r%d" r
  | Imm i -> Format.fprintf ppf "#%d" i

let pp_mode ppf = function
  | Coupled -> Format.pp_print_string ppf "coupled"
  | Decoupled -> Format.pp_print_string ppf "decoupled"

let pp ppf inst =
  let p fmt = Format.fprintf ppf fmt in
  match inst with
  | Alu { op; dst; src1; src2 } ->
    p "%s r%d = %a, %a" (string_of_alu op) dst pp_operand src1 pp_operand src2
  | Fpu { op; dst; src1; src2 } ->
    p "%s r%d = %a, %a" (string_of_fpu op) dst pp_operand src1 pp_operand src2
  | Cmp { op; dst; src1; src2 } ->
    p "cmp.%s r%d = %a, %a" (string_of_cmp op) dst pp_operand src1 pp_operand src2
  | Select { dst; pred; if_true; if_false } ->
    p "select r%d = %a ? %a : %a" dst pp_operand pred pp_operand if_true
      pp_operand if_false
  | Load { dst; base; offset } ->
    p "load r%d = [%a + %a]" dst pp_operand base pp_operand offset
  | Store { base; offset; src } ->
    p "store [%a + %a] = %a" pp_operand base pp_operand offset pp_operand src
  | Mov { dst; src } -> p "mov r%d = %a" dst pp_operand src
  | Pbr { btr; target } -> p "pbr b%d = %s" btr target
  | Br { btr; pred = None; _ } -> p "br b%d" btr
  | Br { btr; pred = Some c; invert } ->
    p "br%s b%d if %a" (if invert then ".not" else "") btr pp_operand c
  | Bcast { src } -> p "bcast %a" pp_operand src
  | Getb { dst } -> p "getb r%d" dst
  | Put { dir; src } -> p "put.%s %a" (string_of_dir dir) pp_operand src
  | Get { dir; dst } -> p "get.%s r%d" (string_of_dir dir) dst
  | Send { target; src } -> p "send c%d, %a" target pp_operand src
  | Recv { sender; dst; kind } ->
    let suffix =
      match kind with Rv_data -> "" | Rv_pred -> ".p" | Rv_sync -> ".sync"
    in
    p "recv%s r%d = c%d" suffix dst sender
  | Spawn { target; entry } -> p "spawn c%d, %s" target entry
  | Sleep -> p "sleep"
  | Mode_switch m -> p "mode_switch %a" pp_mode m
  | Tm_begin -> p "tm_begin"
  | Tm_commit -> p "tm_commit"
  | Halt -> p "halt"
  | Nop -> p "nop"

let to_string inst = Format.asprintf "%a" pp inst
