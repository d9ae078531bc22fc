(** Per-region cycle attribution (the paper's Fig. 12, per region).

    [attach] builds a pc->region map for every core from the compiler's
    {!Voltron_compiler.Codegen.region_extent}s and folds the machine
    probe's core-cycle stream
    ({!Voltron_machine.Machine.probe.on_core_cycles}) by (region of the pc,
    execution mode); after the run, every core-cycle of the program sits in
    exactly one (region, mode) cell — busy, one of the six stall kinds, or
    idle. Fast-forward stays on. Pcs outside every
    planned region (spawn/join glue, HALT) land in a catch-all ["<other>"]
    region so the profile's total always equals [n_cores * cycles]. *)

type t

type row = {
  r_region : string;
  r_strategy : string;  (** codegen strategy name; ["-"] for ["<other>"] *)
  r_mode : Voltron_isa.Inst.mode;
  r_busy : int;
  r_stalls : int array;  (** indexed by [Stats.stall_kind_index] *)
  r_idle : int;
  r_cycles : int;  (** busy + idle + every stall, summed over cores *)
}

val lookup :
  Voltron_compiler.Driver.compiled ->
  string array * string array * (core:int -> pc:int -> int)
(** [(names, strategies, region_of)] — the pc->region map alone, without
    installing anything on a machine. [names] and [strategies] are indexed
    by region id, catch-all ["<other>"] (strategy ["-"]) last; [region_of]
    maps any (core, pc) to a region id, falling back to the catch-all.
    Shared with the causal profiler's {!Blame}, which keys its intervals by
    the same regions. *)

val attach : Voltron_machine.Machine.t -> Voltron_compiler.Driver.compiled -> t
(** Attach the attribution probe to a machine created from
    [compiled.executable]. Call before {!Voltron_machine.Machine.run}.
    Raises [Invalid_argument] on a core-count mismatch. *)

val rows : t -> row list
(** One row per (region, mode) with any cycles, in plan order (catch-all
    last), coupled before decoupled. *)

val total_cycles : t -> int
(** Sum over every cell — equals [n_cores * cycles] for a run that
    executed to completion. *)

val pp : Format.formatter -> t -> unit
(** The per-region table: cycles plus busy / stall-kind / idle fractions
    per row, and the core-cycle total. *)

val to_json : t -> Json.t
