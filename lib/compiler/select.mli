(** Per-region parallelism selection (paper §4.2).

    The hybrid strategy follows the paper's order: statistical/proven
    DOALL loops first (most efficient — no communication in the loop
    body), then DSWP when a balanced pipeline with estimated speedup above
    1.25 exists, then fine-grain strands for regions dominated by cache
    misses, and coupled-mode ILP otherwise. Tiny glue regions stay
    sequential on the master.

    Forced modes compile every region with one family, for the paper's
    per-type evaluations (Figs. 10/11):
    - [`Ilp]: coupled-mode BUG everywhere;
    - [`Tlp]: DSWP where profitable, else eBUG strands (both decoupled);
    - [`Llp]: DOALL where legal, sequential elsewhere;
    - [`Seq]: everything sequential (the single-core baseline). *)

type choice = [ `Hybrid | `Ilp | `Tlp | `Llp | `Seq ]

type planned_region = {
  pr_name : string;
  pr_stmts : Voltron_ir.Hir.stmt list;
  pr_strategy : Codegen.strategy;
  pr_weight : int;  (** dynamic statement count (profile) *)
}

val doall_plan_of_region :
  machine:Voltron_machine.Config.t ->
  profile:Voltron_analysis.Profile.t ->
  Voltron_ir.Hir.stmt list ->
  Codegen.doall_plan option
(** The region's DOALL decomposition (prefix / loop / suffix) when legal
    and profitable, applying the prefix/suffix safety rules (see source). *)

val dswp_plan :
  machine:Voltron_machine.Config.t -> Regions.region -> Codegen.dswp_plan option
(** The region's DSWP pipeline with its estimated speedup, [None] when
    no pipeline of two or more stages exists: {!Partition.dswp} on the
    region's shared dependence graph. The compiler's only call to the DSWP partitioner;
    a [Dswp] strategy carries its result to codegen. *)

val miss_fraction :
  profile:Voltron_analysis.Profile.t -> Voltron_ir.Hir.stmt list -> float
(** Estimated fraction of the region's serial time spent in cache-miss
    stalls (drives the strands-vs-ILP decision, §4.2). *)

val plan :
  ?regions:Regions.t ->
  machine:Voltron_machine.Config.t ->
  profile:Voltron_analysis.Profile.t ->
  choice ->
  Voltron_ir.Hir.program ->
  planned_region list
(** One strategy per region. [Strands] carries [profile], so codegen's
    eBUG reads the same miss rates selection did; [Dswp] carries the
    {!dswp_plan} whose speedup cleared the threshold, so codegen emits the
    partition selection judged. [regions] is the program's shared
    analysis ({!Regions.of_program} of this program, built here when
    absent); the plan is the same either way. *)

val strategy_name : Codegen.strategy -> string
