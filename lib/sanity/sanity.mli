(** Runtime invariant sanitizer: dynamic verification of the coherence
    protocol, the operand network and transactional memory, attached to a
    live {!Voltron_machine.Machine} through one machine probe.

    The sanitizer mirrors the architectural contract from the event streams
    the memory system, network and TM announce, and cross-checks the
    machine against its own model every cycle:

    - {b Coherence oracle}: after every data access, the accessed line's
      cache states across all L1Ds must satisfy single-writer /
      multiple-reader (at most one writable M/E copy and then no other
      sharer, at most one owned copy). The rule is stated over states, not
      protocol messages, so it applies unchanged to both coherence
      backends — the snoop bus's MOESI and the directory's MESI.
      Independently, a golden last-writer-wins shadow
      memory is maintained from the TM's load/store event stream, and
      every read's returned value must equal the shadow's — any
      architecturally visible corruption, whatever layer leaked it, is
      caught at the first read that observes it.
    - {b Network conservation}: every message entering the network must
      leave it exactly once (mirrored per-channel queues reconciled
      against the live in-flight count every cycle), deliveries must
      respect per-(sender, receiver, class) FIFO order, payloads must
      arrive unmodified, and a direct-mode latch must never be
      double-filled or drained empty.
    - {b TM oracle}: an aborted transaction must leave no architecturally
      visible store (the write-set addresses are audited against the
      shadow at the abort), commits within a round must land in core
      order, and a committed buffer folds into the shadow so later reads
      are checked against it.

    Violations are typed, located diagnostics (kind, cycle, core, address,
    blame edge — the same vocabulary as {!Voltron_machine.Machine.diagnosis}).
    The policy decides what a violation does: [Report] logs and continues,
    [Abort] stops the machine at the detection cycle with a structured
    [Stopped] outcome, [Recover] does the same but marks the stop as
    recoverable so {!Run.run_resilient} can feed it into the degradation
    ladder.

    Attaching the sanitizer leaves stall fast-forward as configured (a
    skipped window holds no event it checks) and costs roughly one mirrored
    operation per architectural event; unattached, every hook site is a single [None] branch and the
    simulator's allocation-free fast path is untouched. *)

module Machine = Voltron_machine.Machine

(** {1 Policy} *)

type policy =
  | Report  (** log each violation, keep running *)
  | Abort  (** stop the machine at the detection cycle *)
  | Recover  (** stop, and let the degradation ladder re-run degraded *)

val policy_name : policy -> string
val policy_of_string : string -> (policy, string) result
(** Accepts ["report"], ["abort"], ["recover"]. *)

(** {1 Violations} *)

type kind =
  | Coherence_states of {
      line : int;
      states : (int * Voltron_mem.Cache.state) list;
    }
      (** single-writer/multiple-reader broken after an access (either
          backend's state vocabulary) *)
  | Coherence_sweep of { msg : string }
      (** the end-of-run whole-hierarchy invariant scan failed *)
  | Read_divergence of { expected : int; got : int }
      (** a load returned a value different from the golden shadow *)
  | Aborted_store_leaked of { expected : int; got : int }
      (** memory shows a buffered store after its transaction aborted *)
  | Tm_commit_order of { prev_core : int }
      (** a commit round landed out of core order *)
  | Msg_conservation of { modelled : int; actual : int }
      (** live in-flight message count diverged from the mirror *)
  | Msg_fifo of { seq_expected : int; seq_got : int }
      (** a delivery overtook an older message on its channel *)
  | Msg_payload of { expected : string; got : string }
      (** a message arrived with a different payload than it was sent with *)
  | Msg_phantom of { seq : int }
      (** a delivery the mirror never saw enter the network *)
  | Latch_double_fill of { dir : Voltron_isa.Inst.dir }
      (** a direct-mode PUT landed on an already-full latch *)
  | Latch_empty_get of { dir : Voltron_isa.Inst.dir }
      (** a direct-mode GET drained a latch the mirror holds empty *)
  | Final_image_divergence of { expected : int; got : int }
      (** the final memory image differs from the shadow *)

val kind_class : kind -> string
(** Stable class tag for machine consumption (exit codes, fuzzer
    divergence bucketing, JSON): ["coherence-states"], ["read-divergence"],
    ["tm-leak"], ["tm-commit-order"], ["msg-conservation"], ["msg-fifo"],
    ["msg-payload"], ["msg-phantom"], ["latch-double-fill"],
    ["latch-empty-get"], ["final-image"]. *)

type violation = {
  v_kind : kind;
  v_cycle : int;
  v_core : int option;  (** the core at the detection site, when one exists *)
  v_addr : int option;  (** word address, for memory-shaped violations *)
  v_blame : (int * int) option;
      (** receiver -> sender edge for network-shaped violations — the same
          shape as [Machine.diagnosis.d_blame] *)
}

val violation_to_string : violation -> string

(** {1 Attachment} *)

type t

val attach :
  ?policy:policy -> ?log:(string -> unit) -> ?limit:int -> Machine.t -> t
(** Wire the sanitizer into a machine created but not yet run. [policy]
    defaults to [Abort]; [log] (default: silent) receives each recorded
    violation's rendering as it happens; [limit] (default 32) bounds the
    violations kept and logged — everything past it is still counted.
    One probe carries the conservation check (its [on_window], run after
    those of probes attached earlier) and the coherence, TM and network
    streams; it composes with any other probe on the machine. *)

val finalize : t -> completed:bool -> unit
(** End-of-run checks, to call once the machine has stopped: the
    whole-hierarchy coherence sweep, a last conservation reconciliation
    and — only when the run [completed] (memory has been scrubbed and the
    image is final) — the full shadow-vs-memory comparison. *)

(** {1 Findings} *)

type report = {
  r_policy : policy;
  r_total : int;  (** every violation, recorded or not *)
  r_recorded : violation list;  (** first [limit], in detection order *)
  r_by_class : (string * int) list;  (** class tag -> count, sorted *)
}

val report : t -> report
val clean : report -> bool
val report_to_string : report -> string
val report_to_json : report -> Voltron_obs.Json.t
