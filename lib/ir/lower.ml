module Inst = Voltron_isa.Inst
module Vec = Voltron_util.Vec

type ctx = {
  lay : Layout.t;
  mutable next_vreg : int;
  mutable next_oid : int;
  mutable next_label : int;
}

let make_ctx ~layout ~first_vreg =
  { lay = layout; next_vreg = first_vreg; next_oid = 0; next_label = 0 }

let copy ctx = { ctx with next_vreg = ctx.next_vreg }

let fresh_vreg ctx =
  let v = ctx.next_vreg in
  ctx.next_vreg <- v + 1;
  v

let fresh_label ctx hint =
  let n = ctx.next_label in
  ctx.next_label <- n + 1;
  Printf.sprintf "%s_%d" hint n

let operand (o : Hir.operand) : Inst.operand =
  match o with Hir.Reg r -> Inst.Reg r | Hir.Imm i -> Inst.Imm i

(* Mutable lowering state for one region. *)
type emitter = {
  ctx : ctx;
  blocks : Cfg.block Vec.t;
  mem_refs : (Cfg.oid, Cfg.mem_ref) Hashtbl.t;
  loop_headers : (string, int) Hashtbl.t;
  replicable : (Cfg.oid, unit) Hashtbl.t;
  mutable cur_ops : Cfg.lop list;  (** reversed *)
  mutable cur_label : string;
}

let fresh_oid em =
  let o = em.ctx.next_oid in
  em.ctx.next_oid <- o + 1;
  o

let emit_op ?(hir_sid = -1) em inst =
  em.cur_ops <- { Cfg.oid = fresh_oid em; inst; hir_sid } :: em.cur_ops

let close_block em term =
  Vec.push em.blocks
    { Cfg.b_label = em.cur_label; b_ops = List.rev em.cur_ops; b_term = term }

let start_block em label =
  em.cur_label <- label;
  em.cur_ops <- []

(* Mark the most recently emitted op as replicable on every core. *)
let mark_replicable em =
  match em.cur_ops with
  | { Cfg.oid; _ } :: _ -> Hashtbl.replace em.replicable oid ()
  | [] -> assert false

let emit_mem_ref em arr index write =
  match em.cur_ops with
  | { Cfg.oid; _ } :: _ ->
    Hashtbl.replace em.mem_refs oid
      { Cfg.m_arr = arr; m_index = index; m_write = write }
  | [] -> assert false

let lower_expr em sid dst (e : Hir.expr) =
  match e with
  | Hir.Alu (op, a, b) ->
    emit_op ~hir_sid:sid em (Inst.Alu { op; dst; src1 = operand a; src2 = operand b })
  | Hir.Fpu (op, a, b) ->
    emit_op ~hir_sid:sid em (Inst.Fpu { op; dst; src1 = operand a; src2 = operand b })
  | Hir.Cmp (op, a, b) ->
    emit_op ~hir_sid:sid em (Inst.Cmp { op; dst; src1 = operand a; src2 = operand b })
  | Hir.Select (p, a, b) ->
    emit_op ~hir_sid:sid em
      (Inst.Select
         { dst; pred = operand p; if_true = operand a; if_false = operand b })
  | Hir.Load (arr, idx) ->
    emit_op ~hir_sid:sid em
      (Inst.Load { dst; base = Inst.Imm (Layout.base em.ctx.lay arr); offset = operand idx });
    emit_mem_ref em arr idx false
  | Hir.Operand o -> emit_op ~hir_sid:sid em (Inst.Mov { dst; src = operand o })

let rec lower_stmts em stmts = List.iter (lower_stmt em) stmts

and lower_stmt em ({ Hir.sid; node } : Hir.stmt) =
  match node with
  | Hir.Assign (v, e) -> lower_expr em sid v e
  | Hir.Store (arr, idx, v) ->
    emit_op ~hir_sid:sid em
      (Inst.Store
         { base = Inst.Imm (Layout.base em.ctx.lay arr); offset = operand idx; src = operand v });
    emit_mem_ref em arr idx true
  | Hir.If (cond, then_, else_) -> (
    match (cond, else_) with
    | Hir.Imm c, _ ->
      (* Constant condition: lower only the taken side. *)
      lower_stmts em (if Voltron_isa.Semantics.truthy c then then_ else else_)
    | Hir.Reg cond_reg, [] ->
      let l_end = fresh_label em.ctx "if_end" in
      close_block em (Cfg.Branch { cond = cond_reg; invert = true; target = l_end });
      start_block em (fresh_label em.ctx "if_then");
      lower_stmts em then_;
      close_block em (Cfg.Jump l_end);
      start_block em l_end
    | Hir.Reg cond_reg, _ :: _ ->
      let l_else = fresh_label em.ctx "if_else" in
      let l_end = fresh_label em.ctx "if_end" in
      close_block em (Cfg.Branch { cond = cond_reg; invert = true; target = l_else });
      start_block em (fresh_label em.ctx "if_then");
      lower_stmts em then_;
      close_block em (Cfg.Jump l_end);
      start_block em l_else;
      lower_stmts em else_;
      close_block em (Cfg.Jump l_end);
      start_block em l_end)
  | Hir.For { var; init; limit; step; body } ->
    (* Bottom-tested loop with an entry guard:
         var = init; if (var >= limit) goto exit;
       body: ...; var += step; if (var < limit) goto body; exit: *)
    let l_body = fresh_label em.ctx "loop_body" in
    let l_exit = fresh_label em.ctx "loop_exit" in
    (* With immediate bounds every core can run the induction pattern
       locally (induction-variable replication, paper §4.1). *)
    let replicate =
      match (init, limit) with Hir.Imm _, Hir.Imm _ -> true | _, _ -> false
    in
    let mark () = if replicate then mark_replicable em in
    emit_op em (Inst.Mov { dst = var; src = operand init });
    mark ();
    let guard = fresh_vreg em.ctx in
    emit_op em
      (Inst.Cmp { op = Inst.Lt; dst = guard; src1 = Inst.Reg var; src2 = operand limit });
    mark ();
    close_block em (Cfg.Branch { cond = guard; invert = true; target = l_exit });
    start_block em l_body;
    Hashtbl.replace em.loop_headers l_body sid;
    lower_stmts em body;
    emit_op em (Inst.Alu { op = Inst.Add; dst = var; src1 = Inst.Reg var; src2 = Inst.Imm step });
    mark ();
    let again = fresh_vreg em.ctx in
    emit_op em
      (Inst.Cmp { op = Inst.Lt; dst = again; src1 = Inst.Reg var; src2 = operand limit });
    mark ();
    close_block em (Cfg.Branch { cond = again; invert = false; target = l_body });
    start_block em l_exit
  | Hir.Do_while { body; cond } -> (
    let l_body = fresh_label em.ctx "dw_body" in
    close_block em (Cfg.Jump l_body);
    start_block em l_body;
    Hashtbl.replace em.loop_headers l_body sid;
    lower_stmts em body;
    match cond with
    | Hir.Reg cond_reg ->
      close_block em (Cfg.Branch { cond = cond_reg; invert = false; target = l_body });
      start_block em (fresh_label em.ctx "dw_exit")
    | Hir.Imm _ -> invalid_arg "Lower: do-while condition must be a register")

let region ctx stmts =
  let em =
    {
      ctx;
      blocks = Vec.create ();
      mem_refs = Hashtbl.create 32;
      loop_headers = Hashtbl.create 8;
      replicable = Hashtbl.create 16;
      cur_ops = [];
      cur_label = fresh_label ctx "entry";
    }
  in
  lower_stmts em stmts;
  close_block em Cfg.Stop;
  {
    Cfg.blocks = Vec.to_array em.blocks;
    mem_refs = em.mem_refs;
    loop_headers = em.loop_headers;
    replicable = em.replicable;
  }
