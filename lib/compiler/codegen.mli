(** Region code generation and whole-program assembly.

    Core 0 is the master: it runs the sequential glue and orchestrates
    every parallel region — spawning workers, entering/leaving coupled
    mode, joining decoupled threads, committing DOALL rounds, and reducing
    expanded accumulators (paper §3.2: "core0 behaves as the master,
    spawning jobs... the general strategy used by our compiler").

    Per-region strategies:
    - [Seq]: everything on the master.
    - [Coupled_ilp]: BUG partition over all cores, coupled mode, direct
      network (§4.1 "Compiling for ILP").
    - [Strands]: eBUG partition, decoupled fine-grain threads (§4.1
      "Extracting strands using eBUG"), reading the carried profile's
      per-site miss rates.
    - [Dswp]: the pipeline-stage partition selection carries, decoupled
      (§4.1).
    - [Doall]: chunked loop over all cores, speculative chunks running
      under the transactional memory, accumulator expansion + reduction
      (§4.1 "Extracting LLP from DOALL loops"). *)

type strategy =
  | Seq
  | Coupled_ilp
  | Strands of Voltron_analysis.Profile.t
      (** the profile the region was selected with — codegen never
          profiles on its own *)
  | Dswp of dswp_plan
  | Doall of doall_plan

and dswp_plan = {
  ds_partition : Partition.t;
      (** {!Partition.dswp} of the region's shared dependence graph, indexed
          by its ops; codegen never partitions a DSWP region again *)
  ds_speedup : float;  (** the partitioner's estimated pipeline speedup *)
}

and doall_plan = {
  dp_prefix : Voltron_ir.Hir.stmt list;  (** replicated on every core *)
  dp_loop : Voltron_ir.Hir.for_loop;
  dp_suffix : Voltron_ir.Hir.stmt list;  (** master only, after the join *)
  dp_accumulators : Voltron_analysis.Doall.accumulator list;
  dp_speculative : bool;  (** wrap chunks in TM transactions *)
}

type t

val create : ?regions:Regions.t -> Voltron_machine.Config.t -> Voltron_ir.Hir.program -> t
(** [regions] is the program's shared analysis ({!Regions.of_program} of
    this program, built here when absent); the executable is the same
    either way. Codegen only reads it: scratch words go to a private copy
    of its layout and glue names to {!Regions.fresh_ctx}. *)

type region_extent = {
  re_name : string;
  re_ranges : (int * int) array;
      (** per core: the half-open bundle-address range [lo, hi) the region
          occupies in that core's image — everything the region emitted,
          including spawn glue, worker bodies and joins *)
}

val region_extents : t -> region_extent list
(** One extent per {!emit_region} call, in emission order (the same order
    as the driver's plan). Drives the observability layer's pc->region
    attribution map. *)

val check_infos : t -> Voltron_check.Check.region_info list
(** Region summaries for the static checker, in emission order: every
    partitioned region's memory accesses with their core assignment and a
    may-alias oracle, recorded here while the dependence analysis is still
    in scope so the checker never has to re-derive compiler state. *)

val emit_region : t -> name:string -> Voltron_ir.Hir.stmt list -> strategy -> unit
(** Emits the program's regions from the shared analysis when called with
    each region's own statement list in program order (as a plan does);
    any other statement list is lowered and analysed here. Raises
    [Invalid_argument] if the region reads registers it does not define
    (regions must be register-closed; pass data between regions through
    memory), or if a [Dswp] partition does not cover exactly the region's
    ops (a plan applied to another region's analysis). *)

val finalize : t -> Voltron_isa.Program.t
(** Appends the master's HALT, closes worker images, and packages the
    executable with the data layout (arrays + compiler scratch). *)
