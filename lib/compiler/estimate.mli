(** Static per-region, per-mode cycle estimator (profile-free selection).

    Produces the same shape of numbers the measured profile feeds into
    mode selection, but from the abstract interpreter alone:

    - per-block in-order schedule lengths from the machine latency table,
      with loads charged a static miss-stall bound from the
      footprint/stride cache model ({!Voltron_analysis.Profile.of_static});
    - block repeat counts from static trip-count estimates;
    - per-strategy analytical models (issue-width-bounded critical path
      for coupled ILP, the planned pipeline's speedup for DSWP, chunked-body
      division for DOALL) with overhead constants fitted against the obs
      layer's per-region cycle attribution.

    The [analyze --all] CI job reconciles these predictions against
    simulated per-region cycles and records the geomean error
    (PREDICT.json). *)

type t

val create :
  machine:Voltron_machine.Config.t ->
  ?summary:Voltron_absint.Absint.summary ->
  ?regions:Regions.t ->
  Voltron_ir.Hir.program ->
  t
(** [summary] reuses an existing whole-program analysis, [regions] the
    program's shared region analysis ({!Regions.of_program}); each is
    built here when absent, with the same estimates either way. *)

val static_profile : t -> Voltron_analysis.Profile.t
(** The synthesised profile ({!Voltron_analysis.Profile.of_static}) —
    hand this to {!Select.plan} / {!Driver.compile} for profile-free
    selection. *)

val strategy_cycles : t -> Voltron_ir.Hir.stmt list -> Codegen.strategy -> float
(** Estimated cycles for a region under one strategy on the full
    machine. A region's own statement list (physically, as a plan carries
    it) reads the shared analysis; any other list is lowered for the
    query. *)

val dswp_cycles :
  t -> Voltron_ir.Hir.stmt list -> Codegen.dswp_plan option -> float
(** Estimated cycles for a region run as the given DSWP pipeline
    ({!Select.dswp_plan}); [None], no pipeline, assumes no speedup. *)

type row = {
  e_region : string;
  e_strategy : string;
  e_cycles : float;
}

val table : t -> Select.planned_region list -> row list
(** One prediction row per planned region, in plan order. *)
