(** The unified metrics registry.

    One snapshot gathers every counter silo of the simulator —
    {!Voltron_machine.Stats}, per-core and total {!Voltron_mem.Coherence}
    stats, {!Voltron_net.Operand_network} stats, the fault/ECC counters —
    as named groups of [(name, value)] pairs read straight from those
    records, with one labelled flat view and one [to_json]. Snapshots are
    valid mid-run (the cycle count comes from
    {!Voltron_machine.Machine.now}, not the end-of-run [Stats.cycles]), so
    [delta ~before ~after] gives exact interval counters. *)

type t

val of_stats :
  ?label:string ->
  ?cycles:int ->
  coherence:Voltron_mem.Coherence.stats ->
  ?per_core_coherence:Voltron_mem.Coherence.stats array ->
  network:Voltron_net.Operand_network.stats ->
  Voltron_machine.Stats.t ->
  t
(** Build from already-extracted parts (e.g. a {!Voltron_core.Run}
    measurement). [cycles] overrides [Stats.cycles], which is only set
    once a run finishes; without [per_core_coherence] the per-core cache
    breakdown is empty. *)

val snapshot : ?label:string -> Voltron_machine.Machine.t -> t
(** Read every counter of a live (or finished) machine, including
    per-core cache stats. Safe to call from a probe callback. *)

val delta : before:t -> after:t -> t
(** Pointwise [after - before] over every counter ([max_occupancy], a
    high-water mark, takes [after]'s value; the label is [after]'s).
    Raises [Invalid_argument] when the core counts differ. *)

val with_cycles : int -> t -> t
(** The same counters over a window of [cycles] cycles: the rates of
    {!find} divide by it. *)

val counters : t -> (string * int) list
(** The flat registry: the machine counters, the core counters summed
    over cores, the cache totals ("accesses" as "cache_accesses"), the
    network counters ("net_"-prefixed except "msgs_sent") and the fault
    counters the network group does not already carry, in that order. *)

val find : string -> t -> float option
(** Look a name up in {!counters} (coerced), then in the derived rates:
    "ipc" (ops per core-cycle), "bundle_ipc", "occupancy" (busy fraction),
    "l1d_miss_rate", "l1i_miss_rate", "l2_miss_rate", "avg_net_latency",
    "avg_tm_conflict_rate". Zero denominators read as 0. *)

val pp : Format.formatter -> t -> unit
(** The flat registry — every counter then every gauge — as one
    metric/value table (the shared {!Tabulate} renderer). *)

val to_json : t -> Json.t
(** Every group under its own key — label, machine, per-core counters,
    cache totals, per-core cache, net, faults — and the derived gauges. *)
