(** Interval time-series sampler.

    Attaches a machine probe's [on_window] and, every [every]
    cycles, records the interval's IPC, occupancy, L1D miss rate, average
    network latency and message count as a {!Metrics.delta} between
    consecutive snapshots — "what was the machine doing {e then}", not
    just the end-of-run average.

    Sampling is fast-forward-compatible: a window that jumps a long stall
    region reports all the boundaries it crossed at once — the first takes
    the interval delta, the rest synthesized all-stall samples (zero
    activity over [every] cycles), which is what per-cycle stepping would
    have recorded, since a fast-forwarded window issues nothing. *)

type sample = {
  s_cycle : int;  (** end of the sampled interval *)
  s_mode : Voltron_isa.Inst.mode;  (** mode at the sample point *)
  s_ipc : float;
  s_occupancy : float;
  s_l1d_miss_rate : float;
  s_avg_net_latency : float;
  s_msgs : int;  (** queue-mode messages sent in the interval *)
}

type t

val attach : every:int -> Voltron_machine.Machine.t -> t
(** Attach the sampling probe. Call before {!Voltron_machine.Machine.run}.
    Raises [Invalid_argument] when [every <= 0]. *)

val samples : t -> sample list
(** In time order. *)

val pp : Format.formatter -> t -> unit
val to_json : t -> Json.t
