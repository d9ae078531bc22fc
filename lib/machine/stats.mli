(** Execution statistics, with the stall taxonomy of paper Fig. 12:
    instruction-cache stalls, data stalls, data receive stalls, predicate
    receive stalls and synchronisation stalls (spawn/join, mode-switch
    barriers, TM commit waits), plus latency-interlock stalls (scoreboard
    waits on in-flight ALU results crossing block boundaries). *)

type core = {
  mutable busy : int;  (** cycles a bundle issued *)
  mutable i_stall : int;
  mutable d_stall : int;
  mutable lat_stall : int;
  mutable recv_data_stall : int;
  mutable recv_pred_stall : int;
  mutable sync_stall : int;
  mutable idle : int;  (** asleep or halted *)
  mutable bundles : int;
  mutable ops : int;
  mutable ops_mem : int;  (** loads + stores *)
  mutable ops_comm : int;  (** operand-network ops *)
  mutable ops_mul_div : int;  (** long-latency arithmetic *)
}

type t = {
  n_cores : int;
  per_core : core array;
  mutable cycles : int;
  mutable coupled_cycles : int;
  mutable decoupled_cycles : int;
  mutable mode_switches : int;
  mutable spawns : int;
  mutable tm_rounds : int;
  mutable tm_conflicts : int;
  mutable faults_injected : int;  (** all kinds, from the injector *)
  mutable msgs_dropped : int;
  mutable msgs_corrupted : int;
  mutable net_retries : int;  (** retransmissions by the ack/timeout protocol *)
  mutable net_nacks : int;  (** parity + overflow NACKs *)
  mutable ecc_corrected : int;  (** flips corrected on demand by a read *)
  mutable ecc_scrubbed : int;  (** flips corrected by the end-of-run scrub *)
  mutable flips_masked : int;  (** flips overwritten before ever being read *)
  mutable spurious_aborts : int;
  mutable stall_faults : int;
}

type stall_kind =
  | I_stall
  | D_stall
  | Lat_stall
  | Recv_data
  | Recv_pred
  | Sync

val create : n_cores:int -> t

(** [add_stall t ~core kind k] credits [k] stall cycles of [kind] to
    [core] in one update ([k] > 1 is a stall fast-forward credit). *)
val add_stall : t -> core:int -> stall_kind -> int -> unit

val core : t -> int -> core

val total_stalls : core -> int
val stall_of : core -> stall_kind -> int

val all_stall_kinds : stall_kind list
(** In [stall_kind_index] order. *)

val n_stall_kinds : int
val stall_kind_index : stall_kind -> int
val stall_kind_label : stall_kind -> string
(** The one canonical rendering ("I-stall", "D-stall", "latency",
    "recv-data", "recv-pred", "sync") shared by the trace, the watchdog
    and the observability layer. *)

val pp_summary :
  ?coherence:Voltron_mem.Coherence.stats ->
  ?network:Voltron_net.Operand_network.stats ->
  Format.formatter ->
  t ->
  unit
(** The per-core stall table; with [coherence]/[network], also miss rates
    and channel traffic (fixing the historical counter silo in place). *)
