(** One-call compile-and-simulate helpers — the facade most users (and the
    examples, CLI and benchmark harness) go through. *)

type run_outcome =
  | Completed
  | Cycle_capped  (** exceeded [Config.max_cycles] *)
  | Deadlocked of Voltron_machine.Machine.diagnosis  (** watchdog fired *)
  | Fault_limited of Voltron_machine.Machine.diagnosis
      (** injected faults crossed the degradation threshold *)
  | Sanity_stopped of Voltron_machine.Machine.diagnosis
      (** the runtime sanitizer (policy [Abort] or [Recover]) stopped the
          machine at a violation's detection cycle *)

val outcome_to_string : run_outcome -> string
(** The one text rendering of an outcome: a summary line, followed by the
    structured diagnosis for a deadlock, fault limit or sanitizer stop. *)

val outcome_of_machine : Voltron_machine.Machine.outcome -> run_outcome
(** For a caller that runs a machine itself, with no compiled program to
    judge (the CLI's [asm]). *)

type measurement = {
  cycles : int;
  stats : Voltron_machine.Stats.t;
  coh_stats : Voltron_mem.Coherence.stats;
      (** whole-hierarchy cache/coherence totals *)
  net_stats : Voltron_net.Operand_network.stats;
  outcome : run_outcome;
  checksum : int;
      (** checksum of the array footprint the run left in memory *)
  verified : bool;
      (** [Completed] and [checksum] equals the compiled program's oracle
          checksum (the reference interpreter's) *)
  plan : Voltron_compiler.Select.planned_region list;
  energy : Voltron_machine.Energy.report;
  sanity : Voltron_sanity.Sanity.report option;
      (** present iff the run was sanitized *)
}

val completed : measurement -> bool

val simulate :
  ?sanitize:Voltron_sanity.Sanity.policy ->
  ?sanitize_log:(string -> unit) ->
  attach:(Voltron_machine.Machine.t -> 'a) ->
  Voltron_machine.Config.t ->
  Voltron_compiler.Driver.compiled ->
  measurement * 'a
(** The machine half of {!run}, and the one place a compiled program is
    simulated and judged: build a machine for the configuration, call
    [attach] on it, then attach the runtime sanitizer when [sanitize] is
    given ([sanitize_log] sees each recorded violation as it happens), run
    the machine, finalize the sanitizer and judge the outcome and memory
    image. The sanitizer attaches last, so in every window its
    conservation check runs after the [on_window] of whatever [attach]
    added — an observer (region attribution, blame, sampler) or a test's
    tampering backdoor. It snapshots memory when it attaches, so [attach]
    must not write memory itself. [attach]'s result is returned with the
    measurement.

    [verified] holds when the run completed and the array-footprint
    checksum equals [compiled]'s oracle checksum. A deadlock, cycle-cap
    overrun, fault limit or sanitizer stop is returned as the
    measurement's [outcome] (with [verified = false]), not raised. *)

val run :
  ?choice:Voltron_compiler.Select.choice ->
  ?check:bool ->
  ?profile:Voltron_analysis.Profile.t ->
  ?tweak:(Voltron_machine.Config.t -> Voltron_machine.Config.t) ->
  ?prepare:(Voltron_compiler.Driver.compiled -> Voltron_machine.Machine.t -> unit) ->
  ?sanitize:Voltron_sanity.Sanity.policy ->
  ?sanitize_log:(string -> unit) ->
  n_cores:int ->
  Voltron_ir.Hir.program ->
  measurement
(** {!Voltron_compiler.Driver.compile} (default [`Hybrid]) for an
    [n_cores] Voltron, then {!simulate}. [profile] is collected when
    absent; see {!Voltron_compiler.Driver.compile} for when it doubles as
    the oracle. [tweak] adjusts the machine configuration (cache
    latencies, network capacity, fault injection, ...) before compiling —
    used by the ablation benches and the resilience sweep. [prepare] is
    {!simulate}'s [attach] for the compiled program: the observability
    layer's attachment point (tracers, region attribution, samplers),
    called after the sanitizer attaches, so test harnesses can also arm
    tampering backdoors there. [sanitize] and [sanitize_log] are passed
    to {!simulate}; the measurement's [sanity] report is filled when
    [sanitize] is given.

    The static cross-core checker gates compilation by default: checker
    errors raise {!Voltron_check.Check.Failed}. Pass [~check:false] to
    skip it. *)

(** {1 Graceful degradation} *)

type attempt = {
  a_level : Voltron_fault.Fault.level;
  a_choice : Voltron_compiler.Select.choice;
  a_n_cores : int;
  a_measurement : measurement;
}

type resilient = {
  final : measurement;
  attempts : attempt list;  (** in execution order; last produced [final] *)
  degraded : bool;  (** at least one rung was abandoned *)
}

val run_resilient :
  ?choice:Voltron_compiler.Select.choice ->
  ?check:bool ->
  ?profile:Voltron_analysis.Profile.t ->
  ?tweak:(Voltron_machine.Config.t -> Voltron_machine.Config.t) ->
  ?prepare:(Voltron_compiler.Driver.compiled -> Voltron_machine.Machine.t -> unit) ->
  ?sanitize:Voltron_sanity.Sanity.policy ->
  n_cores:int ->
  Voltron_ir.Hir.program ->
  resilient
(** Like {!run}, but when a rung stops with [Fault_limited] the ladder
    degrades — full hybrid parallelism, then queue-mode-only ([`Tlp]),
    then sequential on core 0 — and re-runs. The bottom rung clears the
    degradation threshold so the last resort always runs to completion
    (faults are still injected and recovered, so it must still verify).

    With [~sanitize:Recover], a rung whose sanitizer report is dirty
    (typically a [Sanity_stopped] outcome) degrades the same way, and the
    bottom rung demotes the policy to [Report] so the last resort cannot
    be stopped — violations there are counted and surfaced instead.
    [prepare] is forwarded to every rung's {!run} (test harnesses arm
    per-rung tampering there). *)

(** {1 Differential testing}

    The correctness contract every compilation strategy carries — identical
    memory image to the reference interpreter, clean static-checker
    diagnostics, fast-forward-invisible timing, watchdog-free termination —
    checked over a strategy x core-count matrix in one call. This is the
    entry the generative fuzzer ([voltron_gen]) and the corpus replay tests
    share. *)

type diff_case = {
  d_strategy : Voltron_compiler.Select.choice;
  d_cores : int;
  d_coherence : Voltron_mem.Coherence.protocol;
      (** which coherence backend the diverging simulation ran on — named
          in cell transcripts and reproducer headers so a finding's exact
          cell regenerates *)
}

type divergence =
  | Non_completion of {
      nc_case : diff_case;
      nc_fast_forward : bool;
      nc_outcome : run_outcome;
    }  (** deadlock, cycle cap or fault stop — watchdog-free termination failed *)
  | Checksum_mismatch of { cm_case : diff_case; expected : int; got : int }
      (** array-footprint memory image differs from the reference
          interpreter (or, for the per-cycle reference run, from the
          fast-forward run) *)
  | Checker_rejected of {
      cr_case : diff_case;
      diags : Voltron_check.Check.diag list;
    }  (** the static cross-core checker found errors in the build *)
  | Ff_cycle_mismatch of { fc_case : diff_case; ff_on : int; ff_off : int }
      (** stall fast-forward changed the cycle count — it must be
          architecturally invisible *)
  | Sanity_violation of {
      sv_case : diff_case;
      sv_fast_forward : bool;
      sv_report : Voltron_sanity.Sanity.report;
    }  (** the runtime sanitizer found invariant violations in the run *)

type differential = {
  diff_runs : int;  (** simulations performed *)
  diff_warnings : int;  (** checker warnings across all cases (not failures) *)
  diff_divergences : divergence list;
}

val default_strategies : Voltron_compiler.Select.choice list
(** [[`Seq; `Ilp; `Tlp; `Llp; `Hybrid]] *)

val default_cores : int list
(** [[2; 4; 8]] *)

val default_coherence : Voltron_mem.Coherence.protocol list
(** [[Snoop; Directory]] — every fuzz campaign diffs both backends by
    default. *)

val choice_name : Voltron_compiler.Select.choice -> string
val divergence_class : divergence -> string
(** Stable failure-class tag: ["non-completion"], ["checksum"],
    ["checker"], ["ff-cycles"] or ["sanitizer"] — the shrinker preserves
    this. *)

val divergence_to_string : divergence -> string

val differential :
  ?strategies:Voltron_compiler.Select.choice list ->
  ?cores:int list ->
  ?coherence:Voltron_mem.Coherence.protocol list ->
  ?max_steps:int ->
  ?max_cycles:int ->
  ?tweak:(Voltron_machine.Config.t -> Voltron_machine.Config.t) ->
  ?miscompile:(Voltron_compiler.Driver.compiled -> Voltron_compiler.Driver.compiled) ->
  ?ff_tweak:(Voltron_machine.Config.t -> Voltron_machine.Config.t) ->
  ?dir_tweak:(Voltron_machine.Config.t -> Voltron_machine.Config.t) ->
  ?sanitize:Voltron_sanity.Sanity.policy ->
  ?jobs:int ->
  Voltron_ir.Hir.program ->
  differential
(** Profile the program once — that interpreter run is also the oracle
    — and build its region analysis ({!Voltron_compiler.Regions}) once,
    then for every strategy x core count: compile once with both
    (static checker on), then for every coherence backend on the [coherence] axis (default
    {!default_coherence} — snoop and directory both), {!simulate} twice —
    stall fast-forward on, then off — and record every contract
    violation. The coherence protocol is timing-only, so each backend's
    fast-forward image is judged against the timing-independent reference
    interpreter — which transitively diffs the snoop and directory
    checksums against each other — and each backend must complete within
    the cycle cap with fast-forward-invariant cycles (the cycle-sanity
    half of the axis). [max_steps] bounds the profiling run and
    [max_cycles] clamps the simulator cap (both deliberately small so
    runaway shrink candidates fail fast instead of simulating 200M
    cycles); raise them for unusually large programs. [sanitize] attaches
    the runtime sanitizer to every simulation; a dirty report is its own
    [Sanity_violation] divergence (and supersedes the non-completion
    judgement for that run — an [Abort] stop is the sanitizer working).
    Note the sanitizer's per-cycle hook disables stall fast-forward, so
    the ff-on/ff-off comparison degenerates under it.

    [miscompile], [ff_tweak] and [dir_tweak] exist for the harness's own
    tests: the first rewrites the compiled artifact before simulation (an
    intentional miscompile, to prove checksum and checker divergences are
    caught), the second perturbs only the per-cycle reference machine (to
    prove fast-forward divergences are caught), the third perturbs only
    the directory-backend simulations (to prove directory-only bugs are
    caught and attributed to their backend). Leave all three at their
    identity defaults in real use.

    [jobs] (default 1) runs the matrix cells on up to that many domains
    ({!Voltron_pool.Pool.parallel_map}); each cell compiles and
    simulates independently, and runs, warnings and divergences are
    accumulated by cell index, so the result is bit-identical for every
    [jobs] value. *)

val baseline_cycles : ?profile:Voltron_analysis.Profile.t -> Voltron_ir.Hir.program -> int
(** Single-core sequential cycles (the paper's 1.0 reference). Pass the
    [profile] the parallel run uses, so the program is interpreted once. *)
