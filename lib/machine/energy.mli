(** First-order energy model.

    The paper's motivation is converting transistors into single-thread
    performance {e without} blowing the power budget (§1); this model lets
    the harness compare execution modes on energy and energy-delay product
    as well as cycles. It is an activity-count model: each op class, cache
    event and network message carries a fixed energy weight, plus a static
    leakage term per core-cycle. The default weights are in arbitrary
    "units" chosen to reflect relative magnitudes typical of the paper's
    era (a DRAM access costs ~100x an ALU op, a network hop ~2 ALU ops);
    absolute calibration is explicitly out of scope.

    Events are taken from the statistics the simulator already keeps
    ({!Stats}, {!Voltron_mem.Coherence}, {!Voltron_net.Operand_network}),
    so attaching the model costs nothing at simulation time. *)

type weights = {
  w_op : float;  (** base cost of any issued (non-NOP) op *)
  w_mul_div : float;  (** extra for long-latency arithmetic *)
  w_mem_op : float;  (** extra for a load/store (datapath side) *)
  w_comm_op : float;  (** extra for an operand-network op *)
  w_l1_access : float;
  w_l1_miss : float;  (** bus transaction + L2 access *)
  w_l2_miss : float;  (** DRAM access *)
  w_msg_hop : float;  (** queue-mode message, per hop *)
  w_leak_core_cycle : float;  (** static power, per core per cycle *)
}

type report = {
  e_dynamic : float;
  e_static : float;
  e_total : float;
  edp : float;  (** energy-delay product: total x cycles *)
}

val of_run :
  ?weights:weights ->
  stats:Stats.t ->
  coherence:Voltron_mem.Coherence.t ->
  network:Voltron_net.Operand_network.t ->
  unit ->
  report

val pp : Format.formatter -> report -> unit
