module B = Voltron_ir.Builder
module Hir = Voltron_ir.Hir
module Inst = Voltron_isa.Inst
module Semantics = Voltron_isa.Semantics

exception Error of Ast.pos * string

module Env = Map.Make (String)

type binding =
  | Scalar of Hir.vreg
  | Loop_var of Hir.vreg
  | Array of Hir.arr

let fail pos msg = raise (Error (pos, msg))

(* --- Constant evaluation for fill(...) initialisers ------------------------ *)

let rec eval_fill pos env (e : Ast.expr) =
  match e with
  | Ast.Int i -> i
  | Ast.Var ("i", _) -> env
  | Ast.Var (x, p) ->
    fail p (Printf.sprintf "only 'i' may appear in fill(...), found '%s'" x)
  | Ast.Index (_, _, p) -> fail p "array reads cannot appear in fill(...)"
  | Ast.Neg a -> -eval_fill pos env a
  | Ast.Ternary (c, t, f) ->
    if Semantics.truthy (eval_fill pos env c) then eval_fill pos env t
    else eval_fill pos env f
  | Ast.Bin (op, a, b) -> (
    let va = eval_fill pos env a and vb = eval_fill pos env b in
    match op with
    | Ast.Add -> Semantics.alu Inst.Add va vb
    | Ast.Sub -> Semantics.alu Inst.Sub va vb
    | Ast.Mul -> Semantics.alu Inst.Mul va vb
    | Ast.Div -> Semantics.alu Inst.Div va vb
    | Ast.Rem -> Semantics.alu Inst.Rem va vb
    | Ast.And -> Semantics.alu Inst.And va vb
    | Ast.Or -> Semantics.alu Inst.Or va vb
    | Ast.Xor -> Semantics.alu Inst.Xor va vb
    | Ast.Shl -> Semantics.alu Inst.Shl va vb
    | Ast.Shr -> Semantics.alu Inst.Shr va vb
    | Ast.Lt -> Semantics.cmp Inst.Lt va vb
    | Ast.Le -> Semantics.cmp Inst.Le va vb
    | Ast.Gt -> Semantics.cmp Inst.Gt va vb
    | Ast.Ge -> Semantics.cmp Inst.Ge va vb
    | Ast.Eq -> Semantics.cmp Inst.Eq va vb
    | Ast.Ne -> Semantics.cmp Inst.Ne va vb
    | Ast.Land ->
      if Semantics.truthy va && Semantics.truthy vb then 1 else 0
    | Ast.Lor -> if Semantics.truthy va || Semantics.truthy vb then 1 else 0)

(* --- Expressions ------------------------------------------------------------ *)

let lookup env pos name =
  match Env.find_opt name env with
  | Some b -> b
  | None -> fail pos (Printf.sprintf "unknown name '%s'" name)

let lookup_array env pos name =
  match lookup env pos name with
  | Array a -> a
  | Scalar _ | Loop_var _ ->
    fail pos (Printf.sprintf "'%s' is a scalar, not an array" name)

let lookup_scalarish env pos name =
  match lookup env pos name with
  | Scalar v | Loop_var v -> Hir.Reg v
  | Array _ ->
    fail pos (Printf.sprintf "'%s' is an array; index it with '%s[...]'" name name)

let alu_of = function
  | Ast.Add -> Some Inst.Add | Ast.Sub -> Some Inst.Sub | Ast.Mul -> Some Inst.Mul
  | Ast.Div -> Some Inst.Div | Ast.Rem -> Some Inst.Rem | Ast.And -> Some Inst.And
  | Ast.Or -> Some Inst.Or | Ast.Xor -> Some Inst.Xor | Ast.Shl -> Some Inst.Shl
  | Ast.Shr -> Some Inst.Shr
  | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne | Ast.Land | Ast.Lor ->
    None

let cmp_of = function
  | Ast.Lt -> Some Inst.Lt | Ast.Le -> Some Inst.Le | Ast.Gt -> Some Inst.Gt
  | Ast.Ge -> Some Inst.Ge | Ast.Eq -> Some Inst.Eq | Ast.Ne -> Some Inst.Ne
  | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Rem | Ast.And | Ast.Or
  | Ast.Xor | Ast.Shl | Ast.Shr | Ast.Land | Ast.Lor ->
    None

let rec expr b env (e : Ast.expr) : Hir.operand =
  match e with
  | Ast.Int i -> B.imm i
  | Ast.Var (x, pos) -> lookup_scalarish env pos x
  | Ast.Index (a, idx, pos) ->
    let arr = lookup_array env pos a in
    B.load b arr (expr b env idx)
  | Ast.Neg a -> B.sub b (B.imm 0) (expr b env a)
  | Ast.Ternary (c, t, f) ->
    (* All three operands evaluate (predicated select), like the target. *)
    let vc = expr b env c and vt = expr b env t and vf = expr b env f in
    B.select b vc vt vf
  | Ast.Bin (op, x, y) -> (
    let vx = expr b env x and vy = expr b env y in
    match (alu_of op, cmp_of op) with
    | Some alu, _ -> B.binop b alu vx vy
    | _, Some cmp -> B.cmp b cmp vx vy
    | None, None -> (
      (* Logical and/or: normalise both sides to 0/1, no short circuit. *)
      let nx = B.cmp b Inst.Ne vx (B.imm 0) in
      let ny = B.cmp b Inst.Ne vy (B.imm 0) in
      match op with
      | Ast.Land -> B.binop b Inst.And nx ny
      | Ast.Lor -> B.binop b Inst.Or nx ny
      | _ -> assert false))

(* --- Statements -------------------------------------------------------------- *)

(* Assignments fuse the expression's top operation into the target
   register rather than copying through a temporary: [sum = sum + c]
   becomes the single statement the accumulator recogniser (and DOALL
   expansion) expects. *)
let assigned_expr b env (e : Ast.expr) : Hir.expr =
  match e with
  | Ast.Bin (op, x, y) when alu_of op <> None || cmp_of op <> None -> (
    let vx = expr b env x and vy = expr b env y in
    match (alu_of op, cmp_of op) with
    | Some alu, _ -> Hir.Alu (alu, vx, vy)
    | _, Some cmp -> Hir.Cmp (cmp, vx, vy)
    | None, None -> assert false)
  | Ast.Bin _ -> Hir.Operand (expr b env e)
  | Ast.Ternary (c, t, f) ->
    let vc = expr b env c and vt = expr b env t and vf = expr b env f in
    Hir.Select (vc, vt, vf)
  | Ast.Index (a, idx, pos) ->
    let arr = lookup_array env pos a in
    Hir.Load (arr, expr b env idx)
  | Ast.Int _ | Ast.Var _ | Ast.Neg _ -> Hir.Operand (expr b env e)

let rec stmt b env (s : Ast.stmt) : binding Env.t =
  match s with
  | Ast.Decl (x, e, _) ->
    let v = B.fresh b in
    B.assign b v (assigned_expr b env e);
    Env.add x (Scalar v) env
  | Ast.Assign (x, e, pos) -> (
    match lookup env pos x with
    | Scalar v ->
      B.assign b v (assigned_expr b env e);
      env
    | Loop_var _ -> fail pos (Printf.sprintf "cannot assign to loop variable '%s'" x)
    | Array _ -> fail pos (Printf.sprintf "'%s' is an array; store with '%s[...] = ...'" x x))
  | Ast.Store (a, idx, e, pos) ->
    let arr = lookup_array env pos a in
    let vi = expr b env idx in
    let ve = expr b env e in
    B.store b arr vi ve;
    env
  | Ast.If (c, then_, else_) ->
    let vc = expr b env c in
    B.if_ b vc (fun () -> block b env then_) (fun () -> block b env else_);
    env
  | Ast.For { var; init; limit; step; body; _ } ->
    let vinit = expr b env init in
    let vlimit = expr b env limit in
    B.for_ b ~step ~from:vinit ~limit:vlimit (fun iv ->
        let v = match iv with Hir.Reg r -> r | Hir.Imm _ -> assert false in
        block b (Env.add var (Loop_var v) env) body);
    env
  | Ast.DoWhile (body, cond) ->
    B.do_while b (fun () ->
        let env' = block_env b env body in
        match expr b env' cond with
        | Hir.Reg _ as r -> r
        | Hir.Imm i ->
          (* Builder requires a register condition. *)
          B.mov b (Hir.Imm i));
    env

and block b env stmts = ignore (block_env b env stmts)

and block_env b env stmts = List.fold_left (stmt b) env stmts

(* --- Program ------------------------------------------------------------------ *)

let program (p : Ast.program) =
  let b = B.create p.Ast.prog_name in
  let env =
    List.fold_left
      (fun env (d : Ast.decl) ->
        if Env.mem d.Ast.arr_name env then
          fail d.Ast.arr_pos
            (Printf.sprintf "duplicate array '%s'" d.Ast.arr_name);
        let init =
          match d.Ast.arr_init with
          | Ast.Zero -> None
          | Ast.Random (lo, hi, seed) ->
            if lo > hi then fail d.Ast.arr_pos "random(lo, hi, _) needs lo <= hi";
            Some
              (Voltron_util.Rng.range_stream (Voltron_util.Rng.create seed)
                 ~n:d.Ast.arr_size ~lo ~hi)
          | Ast.Fill e -> Some (fun i -> eval_fill d.Ast.arr_pos i e)
        in
        let arr =
          match init with
          | Some init -> B.array b ~name:d.Ast.arr_name ~size:d.Ast.arr_size ~init ()
          | None -> B.array b ~name:d.Ast.arr_name ~size:d.Ast.arr_size ()
        in
        Env.add d.Ast.arr_name (Array arr) env)
      Env.empty p.Ast.decls
  in
  List.iter
    (fun (r : Ast.region) ->
      (* Scalars are region-local: each region elaborates from the
         arrays-only environment. *)
      B.region b r.Ast.reg_name (fun () -> block b env r.Ast.reg_body))
    p.Ast.regions;
  B.finish b
