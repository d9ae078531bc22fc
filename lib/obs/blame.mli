(** Wait-for blame recorder — the causal profiler's data-collection half.

    [attach] attaches a machine probe reading the core-cycle stream
    ({!Voltron_machine.Machine.probe.on_core_cycles}) plus the network and
    TM events, and records a per-core sequence of {e blame
    intervals}: every core-cycle of the run classified as compute or as a
    wait on a named edge kind, with the blamed peer core where the wait
    names one. Contiguous cycles with identical classification are merged,
    so the record stays compact even for long runs; under stall
    fast-forward a skipped window arrives as one [k]-cycle report ending
    at its [upto] (possibly after the machine has moved on) and lands in
    the same interval representation, so recording does {e not} force the
    cycle-by-cycle path.

    Network deliveries (SEND->RECV and SPAWN->START) are recorded
    separately with their enqueue cycle, giving {!Critpath} the exact
    in-flight span of the message that ended each net wait. *)

(** Edge kinds — how a core-cycle on the critical path is spent. *)
type kind =
  | K_compute  (** issued a bundle *)
  | K_redo  (** issued a bundle during serial TM re-execution *)
  | K_net_wait  (** RECV blocked: message in flight or not yet sent *)
  | K_spawn  (** asleep, waiting for a START message *)
  | K_bcast_wait  (** GETB blocked on broadcast propagation *)
  | K_latch_wait  (** GET blocked on the inter-core latch *)
  | K_backpressure  (** SEND blocked: receiver queue at capacity *)
  | K_miss_fill  (** data cache miss fill (D-stall / dmem port) *)
  | K_ifetch  (** instruction fetch miss *)
  | K_operand  (** scoreboard operand latency (incl. received values) *)
  | K_tm_commit  (** waiting at a TM commit round *)
  | K_tm_serial  (** waiting for the serial re-execution token *)
  | K_barrier  (** mode-switch barrier straggler wait *)
  | K_lockstep  (** coupled-mode group stall induced by another core *)
  | K_fault  (** injected transient stall fault *)
  | K_drain  (** halted, waiting for the machine to finish *)

val kind_label : kind -> string

type interval = {
  iv_kind : kind;
  iv_blame : int;  (** blamed peer core, [-1] when the wait names none *)
  iv_region : int;
  iv_mode : int;  (** 0 coupled, 1 decoupled *)
  iv_redo : bool;  (** covered by a serial TM re-execution *)
  iv_from : int;  (** first cycle, inclusive *)
  mutable iv_to : int;  (** last cycle, inclusive *)
}

type delivery = {
  dv_cycle : int;  (** cycle the message left the network into the core *)
  dv_src : int;
  dv_sent : int;  (** the message's enqueue cycle at the sender *)
  dv_start : bool;  (** SPAWN/START rather than an operand value *)
}

type t

val attach : Voltron_machine.Machine.t -> Voltron_compiler.Driver.compiled -> t
(** Attach the blame probe. Call before {!Voltron_machine.Machine.run}.
    It composes with any other probe (the sanitizer's, say). Recording
    does not disable stall fast-forward. *)

val n_cores : t -> int

val cycles : t -> int
(** The machine's current cycle — the run length once the run finished. *)

val region_names : t -> string array
val hop_cost : t -> int
val hops : t -> int -> int -> int

val intervals : t -> int -> interval array
(** That core's blame intervals in time order. After a completed run they
    tile [1 .. cycles] exactly — see {!coverage}. *)

val deliveries : t -> int -> delivery array
(** Messages delivered {e to} that core, in delivery-cycle order. *)

val coverage : t -> (unit, string) result
(** [Ok ()] when every core's intervals tile [1 .. cycles] with no gap or
    overlap — the recording-completeness half of the reconciliation
    invariant. *)

val wait_matrix : t -> int array array
(** [(wait_matrix t).(c).(s)] is the cycles core [c] spent blocked on core
    [s] (net, latch, broadcast, backpressure and spawn waits) — the DSWP
    pipeline's stage-to-stage wait picture. *)

val msgs_matrix : t -> int array array
(** [(msgs_matrix t).(s).(d)] counts messages delivered from [s] to [d]. *)

val tm_regions : t -> (string * int * int * int) list
(** Per-region TM history [(region, begins, commits, aborts)], regions
    with any transactions only. *)
