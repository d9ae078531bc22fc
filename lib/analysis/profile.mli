(** Profiling, via the reference interpreter's event hooks.

    Collects what the paper's compiler gets from its profiling runs (§4.1):
    - loop trip counts (DOALL profitability threshold);
    - observed cross-iteration read-after-write dependences per loop — a
      loop with none is a {e statistical DOALL} candidate (§2);
    - per-site load/store miss rates from a single-core cache simulation —
      eBUG's "likely missing loads" and the selection heuristic's
      miss-stall estimate;
    - dynamic execution counts per site (region weights).

    The profiling run doubles as the correctness oracle ({!oracle}). *)

type t

type oracle = {
  array_footprint : int;  (** words to compare (arrays only, no scratch) *)
  checksum : int;  (** checksum of those words after the run *)
}

val collect :
  ?cache:Voltron_mem.Coherence.config ->
  ?max_steps:int ->
  Voltron_ir.Hir.program ->
  t
(** Runs the program once under the interpreter with profiling hooks and
    keeps the run's {!oracle}. [max_steps] bounds the run like
    {!Voltron_ir.Interp.run}'s. *)

val of_static :
  ?cache:Voltron_mem.Coherence.config ->
  ?summary:Voltron_absint.Absint.summary ->
  Voltron_ir.Hir.program ->
  t
(** Profile-free synthesis from the abstract interpreter: loop trip
    counts and dynamic statement counts come from static trip-count
    bounds, per-site miss rates from a footprint/stride cache model, and
    the cross-iteration RAW set from {!Memdep.carried_collision} (stores
    against loads, under the whole-program summary). Loops
    the dynamic profile would clear may stay flagged — that costs
    parallelism, never correctness. [summary] reuses an existing
    whole-program analysis. *)

val oracle : t -> Voltron_ir.Hir.program -> oracle option
(** The profiling run's oracle facts, when [t] was {!collect}ed from
    this very program value (physical equality). [None] for a static
    profile and for a profile of another program — a rebuilt,
    structurally equal twin included; the caller must then run the
    interpreter itself. *)

val avg_trip : t -> int -> float
(** Mean iterations per entry of loop [sid]; 0 if never entered. *)

val has_cross_raw : t -> int -> bool
(** Was a cross-iteration read-after-write observed in loop [sid]?
    (Cross-iteration WAR/WAW do not disqualify speculative DOALL under the
    TM's in-order chunk commit — see [lib/mem/tm.mli].) *)

val miss_rate : t -> int -> float
(** Fraction of accesses at memory site [sid] that missed the profiling
    cache; 0 for unexecuted sites. *)

val access_count : t -> int -> int
(** Dynamic executions of memory site [sid]. *)

val dyn_count : t -> int -> int
(** Dynamic executions of any statement site. *)
