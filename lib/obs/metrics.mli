(** The unified metrics registry.

    One snapshot gathers every counter silo of the simulator —
    {!Voltron_machine.Stats}, per-core and total {!Voltron_mem.Coherence}
    stats, {!Voltron_net.Operand_network} stats, the fault/ECC counters —
    into a single typed record with one labelled flat view and one
    [to_json]. Snapshots are valid mid-run (the cycle count comes from
    {!Voltron_machine.Machine.now}, not the end-of-run [Stats.cycles]),
    so [delta ~before ~after] gives exact interval counters. *)

type core_counters = {
  busy : int;
  i_stall : int;
  d_stall : int;
  lat_stall : int;
  recv_data_stall : int;
  recv_pred_stall : int;
  sync_stall : int;
  idle : int;
  bundles : int;
  ops : int;
  ops_mem : int;
  ops_comm : int;
  ops_mul_div : int;
}

type cache_counters = {
  accesses : int;
  l1d_misses : int;
  l1i_misses : int;
  l2_misses : int;
  c2c_transfers : int;
  upgrades : int;
  writebacks : int;
  bus_wait_cycles : int;  (** bus wait (snoop) or home-bank wait (directory) *)
  dir_lookups : int;  (** directory backend only; 0 under snoop *)
  dir_invalidations : int;
  dir_indirections : int;
}

type net_counters = {
  msgs_sent : int;
  total_latency : int;
  max_occupancy : int;  (** high-water mark, not a monotone counter *)
  retries : int;
  nacks : int;
}

type fault_counters = {
  faults_injected : int;
  msgs_dropped : int;
  msgs_corrupted : int;
  net_retries : int;
  net_nacks : int;
  ecc_corrected : int;
  ecc_scrubbed : int;
  flips_masked : int;
  spurious_aborts : int;
  stall_faults : int;
}

type t = {
  label : string;
  cycles : int;
  coupled_cycles : int;
  decoupled_cycles : int;
  mode_switches : int;
  spawns : int;
  tm_rounds : int;
  tm_conflicts : int;
  cores : core_counters array;
  cache : cache_counters;  (** whole-hierarchy totals *)
  per_core_cache : cache_counters array;  (** empty when not captured *)
  net : net_counters;
  faults : fault_counters;
}

val of_stats :
  ?label:string ->
  ?cycles:int ->
  ?coherence:Voltron_mem.Coherence.stats ->
  ?per_core_coherence:Voltron_mem.Coherence.stats array ->
  ?network:Voltron_net.Operand_network.stats ->
  Voltron_machine.Stats.t ->
  t
(** Build from already-extracted parts (e.g. a {!Voltron_core.Run}
    measurement). [cycles] overrides [Stats.cycles], which is only set
    once a run finishes. Missing [coherence]/[network] read as zeros. *)

val snapshot : ?label:string -> Voltron_machine.Machine.t -> t
(** Read every counter of a live (or finished) machine, including
    per-core cache stats. Safe to call from a probe callback or the
    {!Voltron_machine.Machine.set_on_window} hook. *)

val delta : before:t -> after:t -> t
(** Pointwise [after - before] over every counter ([max_occupancy], a
    high-water mark, takes [after]'s value; the label is [after]'s).
    Raises [Invalid_argument] when the core counts differ. *)

val counters : t -> (string * int) list
(** The flat registry: every machine-level counter plus core counters
    summed over cores, under stable snake_case names ("cycles",
    "busy", "l1d_misses", "msgs_sent", ...). *)

val find : string -> t -> float option
(** Look a name up in {!counters} (coerced), then in the derived rates:
    "ipc" (ops per core-cycle), "bundle_ipc", "occupancy" (busy fraction),
    "l1d_miss_rate", "l1i_miss_rate", "l2_miss_rate", "avg_net_latency",
    "avg_tm_conflict_rate". Zero denominators read as 0. *)

val pp : Format.formatter -> t -> unit
(** The flat registry — every counter then every gauge — as one
    metric/value table (the shared {!Tabulate} renderer). *)

val to_json : t -> Json.t
(** The full record: label, machine counters, per-core breakdowns,
    cache/net/fault silos and the derived gauges. *)
