(** Memory-dependence queries over a lowered region.

    Plays the role of the paper's pointer analysis [18]: symbolic arrays
    never alias each other, and affine index forms disambiguate accesses
    within an array. Two query strengths over a region's ops, and one
    loop-carried test over a loop's HIR:

    - [same_instance_alias]: can the two operations touch the same address
      in the {e same} dynamic execution of their (common) control context?
      Used for intra-block scheduling edges.
    - [ever_alias]: can any two dynamic instances collide? Used by the
      decoupled partitioners, which must keep possibly-dependent memory
      operations on one core (paper §3.3/§4.1 — dependent memory
      operations are placed on the same core so queue-based dummy
      synchronisation is not needed on the fast path).
    - [carried_collision]: can a store in one iteration of a loop touch
      an address another iteration uses? Used by DOALL classification and
      by the static profile's cross-iteration RAW flags.

    When sharpening is on (the default), indices the affine pass gives
    up on — masked power-of-two subscripts, rebound loop variables,
    distinct congruence classes — are additionally tested against the
    {!Voltron_absint} interval × congruence summary of the region: sites
    whose abstract index sets can never be equal are proven disjoint. *)

type t

val create :
  ?sharpen:bool -> region_stmts:Voltron_ir.Hir.stmt list -> Voltron_ir.Cfg.t -> t
(** [sharpen] (default [true]) enables the abstract-interpretation
    disjointness oracle; [false] keeps the purely affine verdicts. *)

val is_mem : t -> Voltron_ir.Cfg.lop -> bool
val is_write : t -> Voltron_ir.Cfg.lop -> bool

val same_instance_alias : t -> Voltron_ir.Cfg.lop -> Voltron_ir.Cfg.lop -> bool
val ever_alias : t -> Voltron_ir.Cfg.lop -> Voltron_ir.Cfg.lop -> bool

val carried_collision :
  summary:Voltron_absint.Absint.summary Lazy.t option ->
  against:[ `Loads | `Accesses ] ->
  Voltron_ir.Hir.for_loop ->
  bool
(** The one loop-carried alias test: can a store in the loop's body touch
    an address that another iteration loads ([`Loads]: a carried RAW) or
    accesses at all ([`Accesses]: RAW, WAR or WAW)? Every (store, access)
    pair on one array takes the affine cross-iteration verdict over the
    loop variable; a pair it cannot separate is still separated when the
    [summary]'s abstract index sets of its two sites never meet. A site
    paired with itself keeps the affine verdict, as its abstract set
    trivially meets itself even when successive iterations never
    collide. [None] keeps the affine verdicts; the summary is forced only
    when a pair needs it. {!Doall} passes the loop's own summary,
    {!Profile.of_static} the whole program's. *)
