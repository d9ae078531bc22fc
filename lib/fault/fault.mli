(** Deterministic fault injection for the Voltron machine.

    The paper's dual-mode design assumes a perfect scalar operand network
    and conflict-free-until-proven-otherwise transactions. This module is
    the seed of the resilience layer that removes those assumptions: a
    seeded fault model (SplitMix64 via {!Voltron_util.Rng}) that can drop
    or corrupt queue-mode messages, flip bits in cache-resident data,
    spuriously abort TM commit rounds and inject transient per-core stall
    faults — all reproducibly, so that a faulty run is a deterministic
    function of [(program, config, fault_seed)].

    Detection and recovery live with the subsystems: the operand network
    retries lost/corrupted messages with bounded exponential backoff
    ({!backoff}), {!Ecc} models single-error-correcting memory words, and
    the machine reuses TM rollback/serial re-execution for spurious
    aborts. When the injected-fault count crosses [degrade_threshold], the
    machine stops gracefully ([Fault_limit]) and the runner walks the
    degradation {!level} ladder: coupled → decoupled-only → serial on
    core 0. *)

type kind =
  | Msg_drop  (** queue-mode message lost in flight *)
  | Msg_corrupt  (** queue-mode payload bit flip (bad parity on arrival) *)
  | Mem_flip  (** bit flip in a cache-resident data word *)
  | Tm_abort  (** spurious transaction abort at a commit round *)
  | Core_stall  (** transient stall fault freezing one core briefly *)

type config = {
  fault_seed : int;  (** seed for the injection RNG *)
  drop_rate : float;  (** per queue-mode SEND *)
  corrupt_rate : float;  (** per queue-mode SEND *)
  flip_rate : float;  (** per cycle, one word of data memory *)
  tm_abort_rate : float;  (** per resolved TM commit round *)
  stall_rate : float;  (** per core per cycle *)
  stall_cycles : int;  (** length of an injected stall *)
  ecc_penalty : int;  (** extra load-stall cycles when ECC corrects a word *)
  retry_timeout : int;  (** base SEND ack timeout before retransmission *)
  backoff_cap : int;  (** max backoff as a multiple of [retry_timeout] *)
  max_retries : int;  (** retransmissions before a forced clean delivery *)
  degrade_threshold : int;  (** injected faults before degrading; 0 = never *)
}

val disabled : config
(** All rates zero — the default machine configuration. Recovery
    parameters keep sane values so the retry path still works for
    non-fault uses (receive-queue overflow). *)

val uniform : ?seed:int -> ?degrade_threshold:int -> rate:float -> unit -> config
(** Every fault kind at the same [rate]; the workhorse of the resilience
    sweeps. *)

val enabled : config -> bool
(** True when any injection rate is positive. *)

type counters = {
  mutable injected : int;  (** total faults injected, all kinds *)
  mutable msgs_dropped : int;
  mutable msgs_corrupted : int;
  mutable spurious_aborts : int;
  mutable stall_faults : int;
  mutable mem_flips : int;
}

type t

val create : config -> t
val config : t -> config
val counters : t -> counters

val exceeded : t -> bool
(** [degrade_threshold > 0] and at least that many faults injected. *)

(** {1 Decision rolls} — each draws from the injector's RNG, so a fixed
    seed gives an identical fault history for an identical run. *)

val roll_drop : t -> bool
val roll_corrupt : t -> bool
val roll_flip : t -> bool
val roll_tm_abort : t -> bool
val roll_stall : t -> bool

val pick_addr : t -> size:int -> int
(** Victim address for a {!Mem_flip}. *)

val victim : t -> n:int -> int
(** Victim core for a spurious abort. *)

val flip_bit : t -> int -> int
(** Flip one random low bit of a data word. *)

val backoff : t -> attempt:int -> int
(** Bounded exponential backoff: [retry_timeout * 2^(attempt-1)] capped at
    [retry_timeout * backoff_cap]. [attempt] is 1-based. *)

val backoff_of : config -> attempt:int -> int
(** Same, from a bare config (used by the network when no injector is
    attached, e.g. for overflow NACK retries). *)

(** {1 Degradation ladder} *)

type level =
  | Full  (** everything: coupled, decoupled, speculation *)
  | Decoupled_only  (** no lock-step coupling, no TM speculation *)
  | Serial_core0  (** last resort: sequential on core 0 *)

val level_name : level -> string

val degrade : level -> level option
(** The next-safer rung, or [None] at the bottom. *)
