module Vec = Voltron_util.Vec

type frame = Hir.stmt Vec.t

type t = {
  prog_name : string;
  arrays : Hir.array_decl Vec.t;
  mutable regions : Hir.region list;  (** reversed *)
  mutable next_vreg : int;
  mutable next_sid : int;
  mutable stack : frame list;  (** innermost emission point first *)
  mutable in_region : bool;
}

let create prog_name =
  {
    prog_name;
    arrays = Vec.create ();
    regions = [];
    next_vreg = 0;
    next_sid = 0;
    stack = [];
    in_region = false;
  }

let array t ~name ~size ?init () =
  if size <= 0 then invalid_arg "Builder.array: size must be positive";
  Vec.push t.arrays { Hir.arr_name = name; size; init };
  Vec.length t.arrays - 1

let fresh t =
  let v = t.next_vreg in
  t.next_vreg <- v + 1;
  v

let fresh_sid t =
  let s = t.next_sid in
  t.next_sid <- s + 1;
  s

let emit t node =
  match t.stack with
  | [] -> invalid_arg "Builder: statement emitted outside a region"
  | frame :: _ -> Vec.push frame { Hir.sid = fresh_sid t; node }

(* Run [f] collecting its emissions into a fresh list. *)
let collect t f =
  let frame = Vec.create () in
  t.stack <- frame :: t.stack;
  let result = f () in
  (match t.stack with
  | _ :: rest -> t.stack <- rest
  | [] -> assert false);
  (Vec.to_list frame, result)

let region t name f =
  if t.in_region then invalid_arg "Builder.region: regions cannot nest";
  t.in_region <- true;
  let stmts, () = collect t f in
  t.in_region <- false;
  t.regions <- { Hir.region_name = name; stmts } :: t.regions

let imm i = Hir.Imm i

let assign_fresh t expr =
  let v = fresh t in
  emit t (Hir.Assign (v, expr));
  Hir.Reg v

let binop t op a b = assign_fresh t (Hir.Alu (op, a, b))
let cmp t op a b = assign_fresh t (Hir.Cmp (op, a, b))
let select t p a b = assign_fresh t (Hir.Select (p, a, b))
let load t arr idx = assign_fresh t (Hir.Load (arr, idx))
let mov t o = assign_fresh t (Hir.Operand o)

let add t = binop t Voltron_isa.Inst.Add
let sub t = binop t Voltron_isa.Inst.Sub
let mul t = binop t Voltron_isa.Inst.Mul

let assign t v expr = emit t (Hir.Assign (v, expr))

let store t arr idx v = emit t (Hir.Store (arr, idx, v))

let if_ t cond then_f else_f =
  let then_, () = collect t then_f in
  let else_, () = collect t else_f in
  emit t (Hir.If (cond, then_, else_))

let for_ t ?(step = 1) ~from ~limit body_f =
  if step <= 0 then invalid_arg "Builder.for_: step must be positive";
  let var = fresh t in
  let body, () = collect t (fun () -> body_f (Hir.Reg var)) in
  emit t (Hir.For { Hir.var; init = from; limit; step; body })

let do_while t body_f =
  let body, cond = collect t body_f in
  emit t (Hir.Do_while { body; cond })

let finish t =
  if t.stack <> [] then invalid_arg "Builder.finish: region still open";
  {
    Hir.prog_name = t.prog_name;
    arrays = Vec.to_array t.arrays;
    regions = List.rev t.regions;
    n_vregs = t.next_vreg;
  }
