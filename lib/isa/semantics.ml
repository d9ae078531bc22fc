(* Shift amounts are masked to 5 bits, like most 32-bit-datapath ISAs. *)
let mask_shift n = n land 31

let alu (op : Inst.alu_op) a b =
  match op with
  | Inst.Add -> a + b
  | Inst.Sub -> a - b
  | Inst.Mul -> a * b
  | Inst.Div -> if b = 0 then 0 else a / b
  | Inst.Rem -> if b = 0 then 0 else a mod b
  | Inst.And -> a land b
  | Inst.Or -> a lor b
  | Inst.Xor -> a lxor b
  | Inst.Shl -> a lsl mask_shift b
  | Inst.Shr -> a asr mask_shift b
  | Inst.Min -> Int.min a b
  | Inst.Max -> Int.max a b

let fpu (op : Inst.fpu_op) a b =
  match op with
  | Inst.Fadd -> a + b
  | Inst.Fsub -> a - b
  | Inst.Fmul -> a * b
  | Inst.Fdiv -> if b = 0 then 0 else a / b

(* Operands annotated [int] so each comparison compiles to an integer
   test, not a polymorphic [compare_val] call. *)
let cmp (op : Inst.cmp_op) (a : int) (b : int) =
  let holds =
    match op with
    | Inst.Eq -> a = b
    | Inst.Ne -> a <> b
    | Inst.Lt -> a < b
    | Inst.Le -> a <= b
    | Inst.Gt -> a > b
    | Inst.Ge -> a >= b
  in
  if holds then 1 else 0

let truthy v = v <> 0
