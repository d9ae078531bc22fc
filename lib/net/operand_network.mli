(** The dual-mode scalar operand network (paper §3.1).

    {b Direct mode} (coupled execution): a PUT on one core and a GET on the
    adjacent core execute in the same cycle and move one register value in
    one cycle per hop, like an inter-cluster move in a multicluster VLIW.
    The model is a latch per (receiving core, incoming direction): PUT
    fills the latch with the current cycle's timestamp, the paired GET
    drains it. BCAST drives a condition to every core; the value becomes
    visible to core [c] at [t + hops(src, c)] (GETB earlier simply does not
    see it yet and the core stalls, which the lock-step stall bus then
    propagates).

    {b Queue mode} (decoupled execution): SEND enqueues a message that the
    router delivers after [1 + hops] cycles into the receiver's CAM-indexed
    receive queue; RECV searches by sender id, consuming the oldest
    matching message, and stalls while none is ready. End-to-end latency is
    2 + hops (one cycle into the send queue, one per hop, one out of the
    receive queue), per §3.1. SPAWN travels the same network carrying a
    start address.

    The CAM is modelled as one FIFO per (sender, receiver, payload class)
    channel, holding that channel's undelivered messages in enqueue order,
    plus an n×n hop table built at {!create}. A message is deliverable when
    it arrived clean ([ready_time <= now]) and heads its channel. So
    {!recv}, {!recv_ready}, {!pending}, {!in_flight_count} and {!idle}'s
    queue test cost O(1); {!next_value_ready} scans one channel;
    {!take_start} and {!next_start_ready} scan the receiver's [n] Start
    channels, and skip even that while none is in flight; {!service} is
    O(1) while no message awaits a retry. No query allocates.

    {b Resilience}: with a {!Voltron_fault.Fault} injector attached, each
    transmission can be dropped or corrupted. Delivery is protected by an
    ack/NACK + timeout protocol: a lost message is retransmitted after a
    bounded exponential backoff, a corrupted one fails its parity check on
    arrival and is NACKed back for resend, and after [max_retries]
    retransmissions delivery is forced clean so no channel wedges forever.
    Messages deliver strictly in per-(sender, receiver, class) FIFO order
    even across retries — a retried message blocks younger ones on its
    channel — which keeps queue-mode program semantics intact under faults.
    Due retransmissions go out youngest first (descending enqueue order),
    so a fixed fault seed draws the same fault history for the same run.

    The machine drives this module cycle-by-cycle; all "stall" outcomes are
    reported as [None] and accounted by the caller. *)

type t

type payload = Value of int | Start of int  (** Start carries a code address *)

val create :
  ?faults:Voltron_fault.Fault.t ->
  ?hop_cost:int ->
  Mesh.t ->
  receive_capacity:int ->
  t
(** [faults] attaches a fault injector; omitted, the network is perfect and
    cycle-for-cycle identical to one without the retry machinery.
    [hop_cost] scales per-hop latency in cycles (default 1, the paper's
    network; 0 idealises hop latency away — the causal profiler's what-if
    rerun configuration). Raises [Invalid_argument] when negative. *)

val mesh : t -> Mesh.t

(** {1 Direct mode} *)

type put_error =
  | Off_mesh  (** the direction leaves the mesh *)
  | Latch_full of int  (** unconsumed PUT into that core *)

val put_error_to_string : src_core:int -> put_error -> string

val put :
  t -> now:int -> src_core:int -> Voltron_isa.Inst.dir -> int ->
  (unit, put_error) result
(** Both error cases are compiler scheduling bugs — surfaced, not masked. *)

val get : t -> now:int -> core:int -> Voltron_isa.Inst.dir -> int option
(** [Some v] consumes the value a PUT left in the latch this very cycle.
    [None] when there is none: the latch is empty, or holds a stale value
    (put at an earlier cycle), which it keeps. Either is a broken lock-step
    contract; the machine wedges the core for the watchdog to report. *)

val bcast : t -> now:int -> src_core:int -> int -> unit
val getb : t -> now:int -> core:int -> int option
(** [None] until the most recent broadcast has reached [core]. Consuming is
    per-core: a second GETB on the same core needs a fresh BCAST. *)

(** {1 Queue mode} *)

type send_error =
  | Bad_destination of int  (** no such core *)
  | Channel_full  (** the (sender, receiver) channel is at capacity *)

val send_error_to_string : send_error -> string

(** {2 Unified error rendering}

    Both error families funnel through one printer so the runtime
    watchdog's diagnosis and the static checker's diagnostics describe the
    same failure with the same words. *)

type error =
  | Put_failed of { src_core : int; error : put_error }
  | Send_failed of send_error

val pp_error : Format.formatter -> error -> unit
val error_to_string : error -> string

val send :
  t -> now:int -> src:int -> dst:int -> payload -> (unit, send_error) result
(** [Error Channel_full] when the (sender, receiver) channel already holds
    [receive_capacity] undelivered messages — the caller stalls, or hands
    the message to {!defer}. Capacity is per channel, not per receiver: a
    producer running far ahead can only fill its own slots, never starve
    another sender whose message the receiver needs next (that sharing
    would deadlock rate-mismatched fine-grain threads). *)

val defer : t -> now:int -> src:int -> dst:int -> payload -> unit
(** Overflow path: enqueue the message as NACKed-at-entry; {!service}
    retransmits it on the standard backoff schedule instead of the sender
    hard-failing. Counted in [stats.nacks]. *)

val service : t -> now:int -> unit
(** Advance the retry protocol one cycle: retransmit every lost, corrupted
    or deferred message whose backoff timer has expired, youngest first
    (descending enqueue order — each retransmission rolls the fault
    injector, so this order is part of a seeded run's history). A no-op
    while no message awaits a retry; the machine calls it once per cycle. *)

val recv : t -> now:int -> core:int -> sender:int -> int option
(** The [Value] message from [sender] heading that channel, if it is ready;
    [None] stalls (and always for a [sender] that is not a core). *)

val recv_ready : t -> now:int -> core:int -> sender:int -> bool
(** Non-consuming test that [recv] would succeed. *)

val getb_ready : t -> now:int -> core:int -> bool
(** Non-consuming test that [getb] would succeed. *)

val take_start : t -> now:int -> core:int -> int option
(** Among the ready [Start] channel heads addressed to a sleeping [core],
    the oldest (smallest enqueue order, across all senders). *)

(** {2 Wake queries}

    Earliest cycle the corresponding ready test can turn true while the
    machine issues nothing (the stall fast-forward window), or [max_int]
    when the wait is event-driven and cannot clear on its own. Exact only
    on a fault-free network — the machine gates fast-forward on that. *)

val next_value_ready : t -> core:int -> sender:int -> int
(** The minimum [ready_time] over the whole [sender]->[core] Value channel
    (not only its head). *)

val next_start_ready : t -> core:int -> int
(** The minimum [ready_time] over every Start message addressed to [core]. *)

val getb_wake : t -> core:int -> int

val pending : t -> src:int -> dst:int -> int
(** Undelivered messages on the [src]->[dst] channel, both payload classes
    together — the count {!send}'s capacity check uses. *)

val idle : t -> bool
(** No message in flight anywhere and all latches empty. *)

val in_flight_summary : t -> (int * int * string) list
(** Snapshot of every undelivered message as (src, dst, description), in
    ascending enqueue order — the receive-queue dump in the watchdog's
    diagnosis. *)

type stats = {
  mutable msgs_sent : int;
  mutable total_latency : int;
  mutable max_occupancy : int;
  mutable retries : int;  (** retransmissions of lost/corrupted/NACKed msgs *)
  mutable nacks : int;  (** parity NACKs + receive-queue overflow NACKs *)
}

val stats : t -> stats

(** {1 Runtime sanitizer hooks}

    The network announces every enqueue, delivery and latch fill/drain so an
    external model can mirror the protocol and cross-check message
    conservation, per-channel FIFO order and payload integrity. *)

type event =
  | Ev_send of { ev_src : int; ev_dst : int; ev_seq : int; ev_payload : payload }
      (** a message entered the network (SEND, SPAWN or overflow defer) *)
  | Ev_deliver of {
      ev_src : int;
      ev_dst : int;
      ev_seq : int;
      ev_payload : payload;
      ev_sent : int;  (** the delivered message's enqueue cycle *)
    }  (** a message left the network into the consuming core *)
  | Ev_put of { ev_src : int; ev_dst : int; ev_dir : Voltron_isa.Inst.dir }
      (** successful latch fill; [ev_dir] is the PUT direction at the source *)
  | Ev_get of { ev_core : int; ev_dir : Voltron_isa.Inst.dir }
      (** successful latch drain at the consuming core *)

val set_monitor : t -> (event -> unit) -> unit
(** The one slot, which a machine owns (its probes' [on_net]); a later call
    replaces it. Passive: the callback must not mutate the network. Unset
    (the default), the hot path pays a single branch per event site. *)

val in_flight_count : t -> int
(** Messages currently in flight — the conservation figure the sanitizer
    reconciles its mirror against every cycle. *)

val test_tamper_payload : t -> bool
(** Test-only sabotage: flip the low bit of the oldest in-flight [Value]
    payload, silently (no event, no parity trip) — undetectable corruption
    past the ack/retry protocol, for the sanitizer to catch. [false] when no
    Value message is in flight. *)

val test_drop : t -> bool
(** Test-only sabotage: silently remove the oldest in-flight message — a
    vanished message the retry protocol never notices, for the sanitizer's
    conservation check to catch. [false] when nothing is in flight. *)
