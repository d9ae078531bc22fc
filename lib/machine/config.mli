(** Machine configuration: core organisation, operation latencies (Itanium
    latencies assumed per paper §5.1), cache geometry and network
    parameters. The same configuration object parameterises the compiler's
    latency estimates, so the schedule model and the simulator agree. *)

type t = {
  n_cores : int;
  issue_width : int;  (** main-pipeline ops per bundle (paper evaluates 1) *)
  comm_width : int;  (** communication-unit ops per bundle *)
  n_btrs : int;  (** branch-target registers per core *)
  cache : Voltron_mem.Coherence.config;
  net_capacity : int;  (** receive-queue capacity per core *)
  net_hop_cost : int;
      (** cycles per mesh hop on the operand network (default 1, the
          paper's network; 0 idealises hop latency away — the rerun
          configuration validating the causal profiler's network what-if) *)
  max_cycles : int;  (** hard simulation cap *)
  watchdog : int;  (** abort after this many cycles without progress *)
  fault : Voltron_fault.Fault.config;  (** injection + recovery parameters *)
  fast_forward : bool;
      (** skip provably-dead stall windows in the simulator (per stalled
          core, and for the whole machine when no core is due), crediting
          the skipped cycles to the same stall kinds and attribution cells
          the per-cycle path would record (architecturally invisible; the
          machine auto-falls back to per-cycle stepping whenever a tracer,
          an on-cycle hook or a fault injector is attached) *)
}

val default : n_cores:int -> t
(** The paper's setup: single-issue cores, one comm op per cycle, default
    cache hierarchy (bus-snooped MOESI), fault injection disabled. *)

val with_coherence : Voltron_mem.Coherence.protocol -> t -> t
(** Swap the coherence backend (snoop bus vs home-based directory) without
    touching any other cache parameter. *)

val latency : Voltron_isa.Inst.t -> int
(** Static operation latency in cycles (load latency is the L1-hit use
    delay; misses add on top through the hierarchy model). *)

val mesh : t -> Voltron_net.Mesh.t
