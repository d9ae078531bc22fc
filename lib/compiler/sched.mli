(** Communication insertion and cycle scheduling for one lowered region.

    Given a partition (op -> core), produces per-core bundle sequences for
    every basic block:

    - {b Coupled} (multicluster-VLIW, paper §3.2): cross-core value flow
      becomes same-cycle PUT/GET move chains (one cycle per hop) on the
      direct-mode network; branch conditions are BCAST to all cores (or
      recomputed locally for replicated induction ops, Fig. 5(c)); every
      block is padded to the same schedule length on all cores and the
      replicated BR executes in the same cycle everywhere.

    - {b Decoupled} (fine-grain threads, §3.2): cross-core flow becomes
      SEND/RECV through the queue-mode network. The full control skeleton
      is replicated on every participating core, and both ends of each
      communication live in the defining op's block, so queue traffic is
      1:1 matched on every path; per-(src,dst) FIFO chains keep message
      order aligned with receive order. Schedules are compressed per core
      (the scoreboard interlock absorbs residual latency).

    Who delivers what is one plan per region, built before list
    scheduling: at most one delivery per (defining op, consumer core). Each
    branch instance gets exactly one delivery of its condition, of the
    definition that reaches it: the last definition in the branch's own
    block, sent to every other participant (BCAST/GETB coupled,
    SEND/RECV(pred) decoupled); a condition defined only in earlier blocks
    was delivered where it was defined, and the interlock covers it.

    Correctness does not depend on the static latencies being exact: the
    machine interlock covers variable memory latency, and in coupled mode
    the stall bus keeps PUT/GET pairs aligned through group stalls. *)

type result = {
  block_code : Voltron_isa.Bundle.t list array array;
      (** [block_code.(core).(block_index)] — bundles for that block;
          indexed only for participating cores (others get [[||]]-like
          empty arrays of the right length with empty lists). *)
  participants : int list;
}

val schedule_region :
  machine:Voltron_machine.Config.t ->
  cfg:Voltron_ir.Cfg.t ->
  dg:Voltron_analysis.Depgraph.t ->
  partition:Partition.t ->
  mode:Voltron_isa.Inst.mode ->
  result
