(** The per-program region analysis every compiler stage reads.

    The paper's compiler picks DOALL, DSWP, strands or coupled ILP for a
    region from one dependence view of it (§4.1–4.2). [of_program] builds
    that view once: it lowers every region, in program order, through one
    {!Voltron_ir.Lower} context that starts at the program's [n_vregs],
    against the program's real data layout, and keeps each region's CFG,
    memory-dependence oracle and dependence graph. {!Select}, {!Estimate}
    and {!Codegen} all read it, so one value serves every (strategy,
    cores) compile of the program.

    Numbering: every region's registers, labels and op ids come first.
    A compile's glue — spawn labels, join sinks, DOALL chunk bounds and
    their fragments — draws from {!fresh_ctx}, a private copy of the
    counters as they stand after the last region.

    A [t] is never mutated after [of_program] returns (codegen reserves
    its scratch in a {!Voltron_ir.Layout.copy} and names its glue from
    {!fresh_ctx}), so compiles on any pool domain can share one. *)

type region = {
  stmts : Voltron_ir.Hir.stmt list;  (** the program's list, physically *)
  cfg : Voltron_ir.Cfg.t;
  memdep : Voltron_analysis.Memdep.t;
  dg : Voltron_analysis.Depgraph.t;
}

type t

val of_program : Voltron_ir.Hir.program -> t

val analyse : Voltron_ir.Lower.ctx -> Voltron_ir.Hir.stmt list -> region
(** Lower [stmts] in [ctx] and build their dependence view — what
    [of_program] does for each region, and what codegen does for the
    statement fragments it synthesises. *)

val layout : t -> Voltron_ir.Layout.t
(** The program's array layout. Shared: reserve scratch in a copy. *)

val region : t -> int -> region option
(** The [i]-th region, in program order. *)

val find : t -> Voltron_ir.Hir.stmt list -> region option
(** The first region whose statement list is physically [stmts]. *)

val fresh_ctx : t -> Voltron_ir.Lower.ctx
(** A private lowering context, numbered after every region. *)
