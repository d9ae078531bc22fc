(** Reproductions of the paper's evaluation figures (§5.2) and the
    design ablations. Each function returns structured data; [print_*]
    renders the same rows/series the figure plots. See EXPERIMENTS.md for
    paper-vs-measured numbers.

    Every figure is a projection of one {e experiment matrix}: one
    subject per program, which builds the program once, profiles it once,
    analyses its regions once and memoises each verified measurement by
    (strategy, cores, knob), where a knob is one machine tweak (coherence
    protocol, queue capacity, memory latency or issue width). The 1-core
    sequential baseline is one of the cells, and all speedups are over
    it. Figures that read one {!matrix} share its cells: figs. 10-14 need
    1 build, 1 profile, 1 region analysis, 1 baseline and 8 simulations
    per benchmark (ILP, TLP, LLP and hybrid at 2 and 4 cores).

    Every projection takes the caller's matrix ([fig10 (matrix ~scale
    ())], ...), so a harness that builds one matrix per invocation
    computes each cell once however many figures it prints. The matrix's
    [scale] shrinks the workloads for quick runs (tests use 0.25). [jobs]
    (default 1) runs one cell per subject on up to [jobs] domains
    ({!Voltron_pool.Pool}); rows are assembled in benchmark order, so
    every figure is identical for every [jobs] value. *)

type per_type_speedup = {
  bench : string;
  sp_ilp : float;
  sp_tlp : float;
  sp_llp : float;
}

type stall_breakdown = {
  sb_bench : string;
  (* Fractions of baseline execution time, averaged over cores, for the
     coupled-ILP and decoupled-TLP builds respectively. *)
  coupled_i : float;
  coupled_d : float;
  coupled_other : float;
  decoupled_i : float;
  decoupled_d : float;
  decoupled_recv : float;
  decoupled_pred : float;
  decoupled_sync : float;
}

type hybrid_speedup = { hs_bench : string; hs_2core : float; hs_4core : float }

type mode_split = { ms_bench : string; coupled_pct : float; decoupled_pct : float }

type classification = {
  cl_bench : string;
  pct_ilp : float;
  pct_tlp : float;
  pct_llp : float;
  pct_single : float;
}

type micro_result = {
  mi_name : string;
  mi_paper : float;  (** the speedup the paper reports for the example *)
  mi_measured : float;  (** ours, 2 cores, best strategy *)
}

(** {1 The experiment matrix} *)

type matrix
(** One subject per suite benchmark and per Figs. 7-9 micro-example, at
    one scale. Nothing is built until a projection asks for it. *)

val matrix : ?scale:float -> unit -> matrix

type work = private {
  mutable builds : int;
  mutable profiles : int;
  mutable analyses : int;  (** region analyses *)
  mutable baselines : int;
  mutable simulations : int;  (** cells other than the baseline *)
}

val work : matrix -> string -> work
(** What the named subject has computed so far. Raises [Not_found]. *)

(** {1 The paper's figures} *)

val fig3 : ?benches:string list -> ?jobs:int -> matrix -> classification list
(** Per-region measured classification: each region runs standalone under
    each forced strategy on 4 cores; the winner's category is credited
    with the region's dynamic weight (the paper's Fig. 3 methodology). *)

val fig10 : ?benches:string list -> ?jobs:int -> matrix -> per_type_speedup list
(** 2-core speedups per parallelism type. *)

val fig11 : ?benches:string list -> ?jobs:int -> matrix -> per_type_speedup list
(** 4-core speedups per parallelism type. *)

val fig12 : ?benches:string list -> ?jobs:int -> matrix -> stall_breakdown list
(** Stall-cycle breakdown, coupled vs decoupled, 4 cores. *)

val fig13 : ?benches:string list -> ?jobs:int -> matrix -> hybrid_speedup list
(** Hybrid (per-region best) speedups on 2 and 4 cores. *)

val fig14 : ?benches:string list -> ?jobs:int -> matrix -> mode_split list
(** Share of execution time spent in each mode during the 4-core hybrid
    runs. *)

val micro : ?jobs:int -> matrix -> micro_result list
(** The Figs. 7-9 worked examples on 2 cores. *)

val counters : ?jobs:int -> matrix -> (string * int * Run.measurement) list
(** Per suite benchmark: its name, baseline cycles and 4-core hybrid
    cell. *)

(** {1 Coherence scaling} — snoop vs directory at 16-64 cores (DESIGN.md
    16). *)

type scaling_row = {
  sc_bench : string;
  sc_class : string;
      (** dominant mix category of the benchmark: ["ilp"], ["tlp"],
          ["llp"] or ["seq"] *)
  sc_cores : int;
  sc_snoop_cycles : int;
  sc_dir_cycles : int;
  sc_snoop : float;  (** hybrid speedup over the 1-core baseline, snoop *)
  sc_directory : float;  (** same run on the directory backend *)
}

type crossover_row = {
  cx_class : string;
  cx_cores : int;
  cx_snoop : float;  (** geomean speedup of the class's benchmarks *)
  cx_directory : float;
  cx_winner : string;  (** ["snoop"], ["directory"] or ["tie"] (within 1%) *)
}

val scaling :
  ?benches:string list -> ?cores:int list -> ?jobs:int -> matrix -> scaling_row list
(** Hybrid speedup at 16/32/64 cores (default) under both coherence
    backends, per benchmark. The default benchmark set covers every
    dominant-mix class with two members (one for seq). Every cell must
    verify against the reference interpreter — the sweep doubles as an
    end-to-end cross-backend differential at high core counts. *)

val crossover : scaling_row list -> crossover_row list
(** Collapse a scaling sweep into the per-class crossover figure: geomean
    snoop vs directory speedup per (class, core count), naming the winner.
    The paper-level claim is that the directory's distributed home-bank
    serialization overtakes the single snoop bus by 16+ cores on
    miss-heavy classes. *)

val print_scaling : scaling_row list -> unit
val print_crossover : crossover_row list -> unit

(** {1 Resilience} — AVF-style fault sweep (DESIGN.md "Fault model &
    recovery"). *)

type resilience_row = {
  rs_bench : string;
  rs_rate : float;  (** uniform per-kind injection rate *)
  rs_level : string;  (** final degradation-ladder rung the run finished on *)
  rs_cycles : int;
  rs_overhead : float;  (** cycles / fault-free cycles at the same config *)
  rs_speedup : float;  (** over the sequential baseline *)
  rs_faults : int;  (** faults injected, all kinds *)
  rs_retries : int;  (** network retransmissions *)
  rs_ecc : int;  (** memory flips corrected, scrubbed or masked *)
  rs_aborts : int;  (** spurious TM aborts *)
  rs_verified : bool;  (** memory image still matches the oracle *)
}

val resilience :
  ?benches:string list ->
  ?rates:float list ->
  ?seed:int ->
  ?jobs:int ->
  matrix ->
  resilience_row list
(** For each benchmark (default cjpeg, gsmdecode, 179.art) and each
    injection rate (default 0, 1e-4, 1e-3, 5e-3), run the 4-core hybrid
    build through {!Run.run_resilient} with every fault kind at that rate
    and a fixed seed: speedup retained, recovery overhead, and how much
    recovery machinery fired. Every row must verify — recovery is only
    recovery if the answer is still right. *)

val print_resilience : resilience_row list -> unit

(** {1 Ablations} — design-choice studies beyond the paper's figures
    (DESIGN.md 4), each returning printable rows. {!ablations} lists
    all eight: A1 hybrid vs the best and worst single strategy; A2 queue
    capacity 1/2/4/32 (epic, forced TLP); A3 memory latency; A4 TM
    mis-speculation; A5 hybrid at 2/4/8 cores (coupled groups capped at
    4, paper 3.2); A6 if-conversion; A7 energy and energy-delay product
    of the 4-core hybrid over the baseline (first-order model,
    {!Voltron_machine.Energy}); A8 one wide-issue core vs four simple
    cores with the same total issue slots (the paper's 1 alternative).
    The three below are also exported alone. *)

type ablation_row = { ab_label : string; ab_values : (string * float) list }

val ablations : (string * (matrix -> ablation_row list)) list
(** A1-A8 in order, each with its printed title. *)

val ablation_memlat : matrix -> ablation_row list
(** Main-memory latency 50/100/200 cycles: decoupled mode's miss tolerance
    grows with latency while coupled ILP's gain shrinks (179.art, 4
    cores). *)

val ablation_tm : matrix -> ablation_row list
(** TM mis-speculation: a scatter loop profiled conflict-free but run with
    0/4/16/64 colliding iterations — speedup decay and conflict counts as
    speculation goes wrong. *)

val ablation_ifconv : matrix -> ablation_row list
(** If-conversion: a strand loop whose small data-dependent conditional
    costs a cross-core predicate round trip every iteration in decoupled
    mode; predicating it away (Opt.program) recovers the loss. *)

val print_ablations : title:string -> ablation_row list -> unit

val print_fig3 : classification list -> unit
val print_fig10 : per_type_speedup list -> unit
val print_fig11 : per_type_speedup list -> unit
val print_fig12 : stall_breakdown list -> unit
val print_fig13 : hybrid_speedup list -> unit
val print_fig14 : mode_split list -> unit
val print_micro : micro_result list -> unit
