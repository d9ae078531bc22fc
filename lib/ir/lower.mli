(** Lowering of structured {!Hir} statements to a {!Cfg}.

    Counted loops are lowered bottom-tested (guard at entry, one branch per
    iteration); [If] lowers to a forward branch over the then-block;
    [Do_while] to a single backward branch. Array accesses become
    [Load]/[Store] with the array base as an immediate and the index as the
    offset operand, and are recorded in the CFG's [mem_refs].

    The context carries fresh-name counters shared across all regions of a
    program so synthesised virtual registers and labels never collide. *)

type ctx

val make_ctx : layout:Layout.t -> first_vreg:int -> ctx

val copy : ctx -> ctx
(** A context whose counters start where [ctx]'s stand and then advance
    independently of it (the layout is shared: lowering only reads it). *)

val fresh_vreg : ctx -> Hir.vreg
val fresh_label : ctx -> string -> string
(** [fresh_label ctx hint] makes a globally unique label. *)

val region : ctx -> Hir.stmt list -> Cfg.t
(** Lower one region to a fresh CFG ending in [Stop]. *)
