type accumulator = {
  acc_vreg : Voltron_ir.Hir.vreg;
  acc_sid : int;
}

type verdict =
  | Proven of accumulator list
  | Speculative of accumulator list
  | Rejected of string

module IntSet = Set.Make (Int)

(* Registers assigned on every path through [stmts] (accepts the "defined
   in both branches of an if" privatisation pattern). *)
let rec unconditional_defs stmts =
  List.fold_left
    (fun acc ({ Voltron_ir.Hir.node; _ } : Voltron_ir.Hir.stmt) ->
      match node with
      | Voltron_ir.Hir.Assign (v, _) -> IntSet.add v acc
      | Voltron_ir.Hir.If (_, then_, else_) ->
        IntSet.union acc
          (IntSet.inter (unconditional_defs then_) (unconditional_defs else_))
      | Voltron_ir.Hir.Do_while { body; _ } ->
        (* A do-while body runs at least once. *)
        IntSet.union acc (unconditional_defs body)
      | Voltron_ir.Hir.For { var; _ } -> IntSet.add var acc  (* init Mov always runs *)
      | Voltron_ir.Hir.Store _ -> acc)
    IntSet.empty stmts

(* Accumulator recognition: exactly one top-level [v <- v + e] (Add/Fadd),
   [v] unused and unwritten elsewhere in the body. *)
let find_accumulators (loop : Voltron_ir.Hir.for_loop) =
  let top_updates =
    List.filter_map
      (fun ({ Voltron_ir.Hir.sid; node } : Voltron_ir.Hir.stmt) ->
        match node with
        | Voltron_ir.Hir.Assign (v, Voltron_ir.Hir.Alu (Voltron_isa.Inst.Add, a, b))
        | Voltron_ir.Hir.Assign (v, Voltron_ir.Hir.Fpu (Voltron_isa.Inst.Fadd, a, b)) ->
          let reads_v o = o = Voltron_ir.Hir.Reg v in
          if reads_v a && not (reads_v b) then Some (v, sid)
          else if reads_v b && not (reads_v a) then Some (v, sid)
          else None
        | Voltron_ir.Hir.Assign _ | Voltron_ir.Hir.Store _ | Voltron_ir.Hir.If _ | Voltron_ir.Hir.For _ | Voltron_ir.Hir.Do_while _ ->
          None)
      loop.Voltron_ir.Hir.body
  in
  List.filter_map
    (fun (v, sid) ->
      let clean = ref true in
      Voltron_ir.Hir.iter_stmts
        (fun ({ Voltron_ir.Hir.sid = s; node } : Voltron_ir.Hir.stmt) ->
          if s <> sid then begin
            let uses =
              match node with
              | Voltron_ir.Hir.Assign (_, e) -> Voltron_ir.Hir.expr_uses e
              | Voltron_ir.Hir.Store (_, i, x) -> Voltron_ir.Hir.operand_uses i @ Voltron_ir.Hir.operand_uses x
              | Voltron_ir.Hir.If (c, _, _) -> Voltron_ir.Hir.operand_uses c
              | Voltron_ir.Hir.For { init; limit; _ } ->
                Voltron_ir.Hir.operand_uses init @ Voltron_ir.Hir.operand_uses limit
              | Voltron_ir.Hir.Do_while { cond; _ } -> Voltron_ir.Hir.operand_uses cond
            in
            let defs =
              match node with
              | Voltron_ir.Hir.Assign (d, _) -> [ d ]
              | Voltron_ir.Hir.For { var; _ } -> [ var ]
              | Voltron_ir.Hir.Store _ | Voltron_ir.Hir.If _ | Voltron_ir.Hir.Do_while _ -> []
            in
            if List.mem v uses || List.mem v defs then clean := false
          end)
        loop.Voltron_ir.Hir.body;
      if !clean then Some { acc_vreg = v; acc_sid = sid } else None)
    top_updates

(* Scalar privacy: walking statements in order, every register a statement
   reads must be the induction variable, an accumulator (only at its own
   update), defined earlier in this iteration on the current path, or
   loop-invariant (never defined inside the body). *)
let check_scalars (loop : Voltron_ir.Hir.for_loop) accumulators =
  let acc_regs = List.map (fun a -> a.acc_vreg) accumulators in
  let acc_sids = List.map (fun a -> a.acc_sid) accumulators in
  let body_defs = IntSet.of_list (Voltron_ir.Hir.defined_vregs loop.Voltron_ir.Hir.body) in
  let failure = ref None in
  let fail v =
    if !failure = None then
      failure := Some (Printf.sprintf "cross-iteration scalar v%d" v)
  in
  let check_uses defined sid vs =
    List.iter
      (fun v ->
        let fine =
          v = loop.Voltron_ir.Hir.var
          || IntSet.mem v defined
          || (not (IntSet.mem v body_defs))
          || (List.mem v acc_regs && List.mem sid acc_sids)
        in
        if not fine then fail v)
      vs
  in
  let rec walk defined stmts =
    List.fold_left
      (fun defined ({ Voltron_ir.Hir.sid; node } : Voltron_ir.Hir.stmt) ->
        match node with
        | Voltron_ir.Hir.Assign (v, e) ->
          check_uses defined sid (Voltron_ir.Hir.expr_uses e);
          (if v = loop.Voltron_ir.Hir.var && !failure = None then
             failure := Some "induction variable redefined");
          IntSet.add v defined
        | Voltron_ir.Hir.Store (_, i, x) ->
          check_uses defined sid (Voltron_ir.Hir.operand_uses i @ Voltron_ir.Hir.operand_uses x);
          defined
        | Voltron_ir.Hir.If (c, then_, else_) ->
          check_uses defined sid (Voltron_ir.Hir.operand_uses c);
          ignore (walk defined then_);
          ignore (walk defined else_);
          IntSet.union defined
            (IntSet.inter (unconditional_defs then_) (unconditional_defs else_))
        | Voltron_ir.Hir.For ({ var; init; limit; body; _ } : Voltron_ir.Hir.for_loop) ->
          check_uses defined sid (Voltron_ir.Hir.operand_uses init @ Voltron_ir.Hir.operand_uses limit);
          ignore (walk (IntSet.add var defined) body);
          IntSet.add var defined
        | Voltron_ir.Hir.Do_while { body; cond } ->
          let after = walk defined body in
          check_uses after sid (Voltron_ir.Hir.operand_uses cond);
          IntSet.union defined (unconditional_defs body))
      defined stmts
  in
  ignore (walk IntSet.empty loop.Voltron_ir.Hir.body);
  !failure

let classify ?(sharpen = true) (loop : Voltron_ir.Hir.for_loop) ~profile ~loop_sid =
  let accumulators = find_accumulators loop in
  match check_scalars loop accumulators with
  | Some reason -> Rejected reason
  | None ->
    (* Memory independence (no TM needed): no store collides with any
       access across iterations, by the loop's own abstract summary. *)
    let loop_stmt = { Voltron_ir.Hir.sid = loop_sid; node = Voltron_ir.Hir.For loop } in
    let summary =
      if sharpen then Some (lazy (Voltron_absint.Absint.summarize_region [ loop_stmt ]))
      else None
    in
    if not (Memdep.carried_collision ~summary ~against:`Accesses loop) then
      Proven accumulators
    else if not (Profile.has_cross_raw profile loop_sid) then
      Speculative accumulators
    else Rejected "cross-iteration memory dependence observed in profile"
