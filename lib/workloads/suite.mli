(** The synthetic benchmark suite: one program per paper benchmark
    (MediaBench + SPEC subset of §5.1), each composed of regions whose
    parallelism character follows that benchmark's breakdown in the
    paper's Fig. 3 (DESIGN.md §2 documents this substitution), plus the
    three worked micro-examples of Figs. 7-9.

    [scale] multiplies every region's iteration count: 1.0 is the default
    evaluation size; tests use smaller scales. *)

type mix = {
  ilp : int;  (** percent of work in coupled-ILP-shaped regions *)
  tlp : int;  (** fine-grain TLP (strands + DSWP) *)
  llp : int;  (** DOALL *)
  seq : int;  (** serial *)
}

type benchmark = {
  bench_name : string;
  bench_mix : mix;  (** the Fig. 3-informed target mix *)
  build : ?scale:float -> unit -> Voltron_ir.Hir.program;
}

val all : benchmark list
(** The 24 benchmarks, in the paper's x-axis order. *)

val by_name : string -> benchmark
(** Raises [Not_found]. *)

val micro_gsm_llp : ?scale:float -> unit -> Voltron_ir.Hir.program
val micro_gzip_strands : ?scale:float -> unit -> Voltron_ir.Hir.program
val micro_gsm_ilp : ?scale:float -> unit -> Voltron_ir.Hir.program

type micro = {
  micro_name : string;  (** the CLI name, e.g. ["micro:gsm_llp"] *)
  micro_label : string;  (** the figure label, e.g. ["gsmdecode DOALL (Fig.7)"] *)
  micro_paper : float;  (** the 2-core speedup the paper reports *)
  micro_build : ?scale:float -> unit -> Voltron_ir.Hir.program;
}

val micros : micro list
(** The three micro-examples above, in figure order (Figs. 7, 8, 9). *)
