(** Operation-level dependence graph over a lowered region.

    Nodes are the region's operations (dense indices over {!Voltron_ir.Cfg.all_ops});
    intra-block scheduling edges carry minimum latencies:
    - def → use of a register (latency of the defining op);
    - use → later def of the same register (0: VLIW read-before-write may
      share a cycle but never reorder);
    - def → later def of the same register (1);
    - memory → memory in program order when the pair may alias in the same
      dynamic instance and at least one writes (1: dependent memory
      operations execute in subsequent cycles, paper §3.3).

    Global register def/use maps drive communication insertion; critical-
    path priorities drive the list schedulers and BUG's visit order. *)

type edge = { e_src : int; e_dst : int; e_lat : int }

type t = {
  ops : Voltron_ir.Cfg.lop array;
  block_of : int array;
  defs : Voltron_ir.Hir.vreg list array;  (** node -> the vregs its op defines *)
  edges : edge list;  (** intra-block scheduling edges *)
  succs : (int * int) list array;
      (** node -> (succ, lat), in the order [build] found the edges (the
          reverse of [edges]) *)
  preds : (int * int) list array;  (** node -> (pred, lat), same order *)
  defs_of : (Voltron_ir.Hir.vreg, int list) Hashtbl.t;  (** program order *)
  uses_of : (Voltron_ir.Hir.vreg, int list) Hashtbl.t;
  priority : int array;  (** critical-path length to any sink *)
  weight : int array;  (** op latency (BUG's schedule estimate unit) *)
}

val build :
  cfg:Voltron_ir.Cfg.t ->
  memdep:Memdep.t ->
  latency:(Voltron_isa.Inst.t -> int) ->
  t

