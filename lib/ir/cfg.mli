(** Low-level IR: a control-flow graph of basic blocks over virtual
    registers, produced by {!Lower} and consumed by the partitioners and
    schedulers.

    Operations reuse the machine instruction type with virtual register
    numbers; control flow is explicit in each block's terminator (the
    unbundled PBR/CMP/BR sequence is synthesised at scheduling time).
    Memory operations carry a side record naming the symbolic array and
    index expression so dependence analysis does not have to reverse-
    engineer addresses. *)

type oid = int
(** Unique id of an operation within one lowered region. *)

type lop = {
  oid : oid;
  inst : Voltron_isa.Inst.t;  (** over virtual registers *)
  hir_sid : int;  (** originating HIR site, [-1] when synthesised *)
}

type mem_ref = {
  m_arr : Hir.arr;
  m_index : Hir.operand;
  m_write : bool;
}

type terminator =
  | Jump of string
  | Branch of { cond : Hir.vreg; invert : bool; target : string }
      (** Taken to [target] when [cond] (xor [invert]) is truthy, else
          falls through to the next block in layout order. *)
  | Stop  (** end of region *)

type block = {
  b_label : string;
  mutable b_ops : lop list;
  mutable b_term : terminator;
}

type t = {
  blocks : block array;  (** layout order; entry first *)
  mem_refs : (oid, mem_ref) Hashtbl.t;
  loop_headers : (string, int) Hashtbl.t;
      (** body-entry label -> HIR sid, for loops lowered in this region *)
  replicable : (oid, unit) Hashtbl.t;
      (** induction-pattern ops (loop-var move/update and bound compares
          with immediate bounds) that the partitioners replicate on every
          core instead of assigning — the paper's induction-variable
          replication (§4.1) and locally-recomputed branch conditions
          (Fig. 5(c)). *)
}

val all_ops : t -> lop list

val pp : Format.formatter -> t -> unit
