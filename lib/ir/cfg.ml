type oid = int

type lop = {
  oid : oid;
  inst : Voltron_isa.Inst.t;
  hir_sid : int;
}

type mem_ref = {
  m_arr : Hir.arr;
  m_index : Hir.operand;
  m_write : bool;
}

type terminator =
  | Jump of string
  | Branch of { cond : Hir.vreg; invert : bool; target : string }
  | Stop

type block = {
  b_label : string;
  mutable b_ops : lop list;
  mutable b_term : terminator;
}

type t = {
  blocks : block array;
  mem_refs : (oid, mem_ref) Hashtbl.t;
  loop_headers : (string, int) Hashtbl.t;
  replicable : (oid, unit) Hashtbl.t;
}

let all_ops t =
  Array.to_list t.blocks |> List.concat_map (fun b -> b.b_ops)

let pp ppf t =
  Array.iter
    (fun b ->
      Format.fprintf ppf "%s:@." b.b_label;
      List.iter
        (fun op -> Format.fprintf ppf "  %a@." Voltron_isa.Inst.pp op.inst)
        b.b_ops;
      (match b.b_term with
      | Jump l -> Format.fprintf ppf "  jump %s@." l
      | Branch { cond; invert; target } ->
        Format.fprintf ppf "  branch%s v%d -> %s@."
          (if invert then ".not" else "")
          cond target
      | Stop -> Format.fprintf ppf "  stop@."))
    t.blocks
