type linexpr = {
  const : int;
  terms : (Voltron_ir.Hir.vreg * int) list;
}

let const_ c = { const = c; terms = [] }

let var_ v = { const = 0; terms = [ (v, 1) ] }

let norm terms =
  List.filter (fun (_, c) -> c <> 0) terms |> List.sort compare

let merge f a b =
  let rec go xs ys =
    match (xs, ys) with
    | [], rest -> List.map (fun (v, c) -> (v, f 0 c)) rest
    | rest, [] -> List.map (fun (v, c) -> (v, f c 0)) rest
    | (vx, cx) :: xs', (vy, cy) :: ys' ->
      if vx = vy then (vx, f cx cy) :: go xs' ys'
      else if vx < vy then (vx, f cx 0) :: go xs' ys
      else (vy, f 0 cy) :: go xs ys'
  in
  norm (go (norm a) (norm b))

let add a b = { const = a.const + b.const; terms = merge ( + ) a.terms b.terms }

let sub a b = { const = a.const - b.const; terms = merge ( - ) a.terms b.terms }

let scale k e = { const = k * e.const; terms = norm (List.map (fun (v, c) -> (v, k * c)) e.terms) }

let coeff e v = match List.assoc_opt v e.terms with Some c -> c | None -> 0

let is_const e = if e.terms = [] then Some e.const else None

let equal a b = a.const = b.const && norm a.terms = norm b.terms

(* --- Forward symbolic propagation over a loop body ------------------------ *)

module IntMap = Map.Make (Int)

type env = linexpr option IntMap.t

let operand_form (env : env) (o : Voltron_ir.Hir.operand) =
  match o with
  | Voltron_ir.Hir.Imm i -> Some (const_ i)
  | Voltron_ir.Hir.Reg r -> ( match IntMap.find_opt r env with Some f -> f | None -> None)

let expr_form env (e : Voltron_ir.Hir.expr) =
  match e with
  | Voltron_ir.Hir.Alu (Voltron_isa.Inst.Add, a, b) -> (
    match (operand_form env a, operand_form env b) with
    | Some fa, Some fb -> Some (add fa fb)
    | _ -> None)
  | Voltron_ir.Hir.Alu (Voltron_isa.Inst.Sub, a, b) -> (
    match (operand_form env a, operand_form env b) with
    | Some fa, Some fb -> Some (sub fa fb)
    | _ -> None)
  | Voltron_ir.Hir.Alu (Voltron_isa.Inst.Mul, a, b) -> (
    match (operand_form env a, operand_form env b) with
    | Some fa, Some fb -> (
      match (is_const fa, is_const fb) with
      | Some k, _ -> Some (scale k fb)
      | _, Some k -> Some (scale k fa)
      | None, None -> None)
    | _ -> None)
  | Voltron_ir.Hir.Alu (Voltron_isa.Inst.Shl, a, b) -> (
    match (operand_form env a, operand_form env b) with
    | Some fa, Some fb -> (
      match is_const fb with
      | Some k when k >= 0 && k < 31 -> Some (scale (1 lsl k) fa)
      | Some _ | None -> None)
    | _ -> None)
  | Voltron_ir.Hir.Operand o -> operand_form env o
  | Voltron_ir.Hir.Alu _ | Voltron_ir.Hir.Fpu _ | Voltron_ir.Hir.Cmp _ | Voltron_ir.Hir.Select _ | Voltron_ir.Hir.Load _ -> None

let index_forms ~loop_vars body =
  let out : (int, linexpr option) Hashtbl.t = Hashtbl.create 32 in
  let taint vs env = List.fold_left (fun e v -> IntMap.add v None e) env vs in
  (* Forward walk threading a functional environment. Loop-body
     destinations are killed before analysing the body (their values vary
     across iterations in ways only the induction variable captures), and
     conditionally-assigned destinations are killed after the If. *)
  let rec walk env stmts =
    List.fold_left
      (fun env ({ Voltron_ir.Hir.sid; node } : Voltron_ir.Hir.stmt) ->
        match node with
        | Voltron_ir.Hir.Assign (v, e) ->
          (match e with
          | Voltron_ir.Hir.Load (_, idx) -> Hashtbl.replace out sid (operand_form env idx)
          | Voltron_ir.Hir.Alu _ | Voltron_ir.Hir.Fpu _ | Voltron_ir.Hir.Cmp _ | Voltron_ir.Hir.Select _ | Voltron_ir.Hir.Operand _ -> ());
          IntMap.add v (expr_form env e) env
        | Voltron_ir.Hir.Store (_, idx, _) ->
          Hashtbl.replace out sid (operand_form env idx);
          env
        | Voltron_ir.Hir.If (_, then_, else_) ->
          ignore (walk env then_);
          ignore (walk env else_);
          taint (Voltron_ir.Hir.defined_vregs (then_ @ else_)) env
        | Voltron_ir.Hir.For { var; body = inner; _ } ->
          let inner_env =
            IntMap.add var (Some (var_ var)) (taint (Voltron_ir.Hir.defined_vregs inner) env)
          in
          ignore (walk inner_env inner);
          taint (var :: Voltron_ir.Hir.defined_vregs inner) env
        | Voltron_ir.Hir.Do_while { body = inner; _ } ->
          ignore (walk (taint (Voltron_ir.Hir.defined_vregs inner) env) inner);
          taint (Voltron_ir.Hir.defined_vregs inner) env)
      env stmts
  in
  let env0 =
    List.fold_left
      (fun e v -> IntMap.add v (Some (var_ v)) e)
      IntMap.empty loop_vars
  in
  ignore (walk env0 body);
  out

type alias_verdict = Never | Same_iteration_only | May_cross | Unknown

let cross_iteration_alias ~var f1 f2 =
  match (f1, f2) with
  | None, _ | _, None -> Unknown
  | Some e1, Some e2 -> (
    let c1 = coeff e1 var and c2 = coeff e2 var in
    let rest1 = sub e1 (scale c1 (var_ var)) in
    let rest2 = sub e2 (scale c2 (var_ var)) in
    (* Collision across iterations k1 <> k2 requires
       c1*k1 + r1 = c2*k2 + r2. We decide only when both non-[var] parts
       are constants: another loop variable left in them varies too, so
       a cancelling difference would wrongly treat it as fixed. *)
    match (is_const rest1, is_const rest2) with
    | None, _ | _, None -> Unknown
    | Some r1, Some r2 ->
      let d = r1 - r2 in
      if c1 = 0 && c2 = 0 then if d = 0 then May_cross else Never
      else if c1 = c2 then begin
        (* c*(k1 - k2) = -d: crosses iff d is a non-zero multiple of c. *)
        if d = 0 then Same_iteration_only
        else if d mod c1 = 0 then May_cross
        else Never
      end
      else Unknown)
