(** The Voltron multicore cycle simulator.

    Executes a {!Voltron_isa.Program.t} on [n] in-order VLIW cores joined by
    the dual-mode scalar operand network, with coherent caches and
    transactional memory. Core 0 starts at address 0 of its image; the
    other cores start asleep, waiting for SPAWN. The machine starts in
    decoupled mode.

    {b Execution model.} Each core is an interlocked (stall-on-use) VLIW:
    the compiler schedules for the static latencies in {!Config.latency}
    and a scoreboard stalls the core when a source operand, the memory
    unit, an instruction fetch, or a network value is not ready. Stall
    cycles are attributed per Fig. 12 (I-, D-, data-receive,
    predicate-receive, synchronisation). In coupled mode the 1-bit stall
    bus makes every stall a group stall: no core issues unless all can
    (§3.2). Architectural data lives in flat memory updated at issue time;
    caches model timing only (DESIGN.md §5).

    {b Transactions.} A TM commit round resolves when {e every} core is in
    a transaction and waiting at TM_COMMIT — the in-order chunk-commit rule,
    so the DOALL codegen gives every core one (possibly empty) chunk per
    round. Chunks commit in core order, and on a conflict
    the violating core and its successors roll back (registers restored
    from the TM_BEGIN snapshot — standing in for the paper's
    compiler-generated recovery code) and re-execute serially.

    {b Faults.} With a nonzero rate in {!Config.t.fault} the machine runs a
    seeded injector (DESIGN.md "Fault model & recovery"): queue-mode
    messages can be dropped or corrupted (recovered by the network's
    ack/timeout/retry protocol), memory words can be bit-flipped (detected
    and corrected by the ECC model, with an end-of-run scrub so the final
    checksum still verifies), TM rounds can spuriously abort (recovered by
    the existing rollback + serial re-execution), and cores can suffer
    transient stall faults. When the injected-fault count reaches
    [degrade_threshold], the run stops with {!Fault_limit} so the caller
    can retry in a simpler execution mode. *)

type t

(** Why a core cannot make progress — the vocabulary of the watchdog's
    structured diagnosis. *)
type wait =
  | W_reg of Stats.stall_kind  (** scoreboard: source operand in flight *)
  | W_ifetch
  | W_dmem
  | W_btr  (** branch-target register still being written *)
  | W_recv of { sender : int; kind : Stats.stall_kind }
  | W_getb
  | W_send_full of int  (** receive queue of that core at capacity *)
  | W_get_latch of Voltron_isa.Inst.dir  (** no same-cycle PUT: empty or stale *)
  | W_put_latch of Voltron_isa.Inst.dir  (** PUT into a full latch or off the mesh *)
  | W_stall_fault  (** injected transient stall in effect *)
  | W_barrier of Voltron_isa.Inst.mode
  | W_commit
  | W_serial
  | W_asleep
  | W_halted

val wait_to_string : wait -> string

val stall_of_wait : wait -> Stats.stall_kind
(** The Fig. 12 stall kind a running core's wait is counted as. *)

type core_diag = {
  d_core : int;
  d_pc : int;
  d_wait : wait option;  (** [None]: the core could issue (not the culprit) *)
  d_bundle : string;  (** rendering of the bundle the core is stuck on *)
}

type diagnosis = {
  d_cycle : int;
  d_last_progress : int;
  d_mode : Voltron_isa.Inst.mode;
  d_cores : core_diag array;
  d_queue : (int * int * string) list;
      (** in-flight messages: src, dst, payload + delivery state *)
  d_blame : (int * int) option;
      (** the first blocked core whose wait names another core, and that
          core: the edge to start a hang investigation from *)
}

val diagnosis_to_string : diagnosis -> string

type outcome =
  | Finished
  | Out_of_cycles
  | Deadlock of diagnosis  (** watchdog fired: structured wait-state dump *)
  | Fault_limit of diagnosis
      (** fault injection crossed [degrade_threshold]; the caller should
          degrade to a simpler execution mode and re-run *)
  | Stopped of diagnosis
      (** a hook called {!request_stop} — the runtime sanitizer halting the
          machine at the cycle a violation was detected *)

type result = {
  outcome : outcome;
  cycles : int;
  checksum : int;  (** final data-memory checksum (the oracle value) *)
}

val create : Config.t -> Voltron_isa.Program.t -> t
(** Raises [Invalid_argument] if the program's core count does not match
    the configuration, or a bundle exceeds the configured widths. *)

val run : t -> result

val memory : t -> Voltron_mem.Memory.t
val stats : t -> Stats.t
(** The run's counters. Read mid-run (from a probe's [on_window], or from
    its [on_net], [on_tm] or [on_access] in the middle of a cycle), it
    first settles the credit the stall fast-forward has deferred and the
    bundles NOP-run elision has skipped, so the counters are exactly what
    cycle-by-cycle stepping would show at that point. *)

val coherence : t -> Voltron_mem.Coherence.t
val network : t -> Voltron_net.Operand_network.t
val tm : t -> Voltron_mem.Tm.t

val now : t -> int
(** Current simulated cycle (valid mid-run, e.g. from a probe callback;
    equals [Stats.cycles] once the run finishes). *)

val mode : t -> Voltron_isa.Inst.mode
(** Current execution mode. *)

val pc : t -> core:int -> int
(** That core's current pc — the blame recorder's region lookup key.
    Read mid-run it first settles the core's elided NOP run, as {!stats}
    does. *)

val config : t -> Config.t
(** The configuration the machine was created with. *)

val reg : t -> core:int -> int -> int
(** Inspect a register after (or during) a run — used by tests. *)

val blame_of : t -> core:int -> wait -> int option
(** The peer core [core]'s wait names, if any (a RECV's sender, the first
    core missing from a commit round, ...), as of now — from a probe
    callback, as of the reported cycle. *)

(** {1 Observability} *)

(** A machine-wide event that no other probe stream carries. *)
type event =
  | Mode_change of { cycle : int; mode : Voltron_isa.Inst.mode }
  | Tm_round of { cycle : int; conflict_at : int option }
      (** [conflict_at]: the first core aborted (serial re-execution) *)
  | Serial_start of { cycle : int; core : int }
      (** the core began serial re-execution of its aborted TM chunk *)

(** One core-cycle (or [k] identical core-cycles) as the probe sees it. *)
type blame_event =
  | Blame_busy  (** the core issued a bundle *)
  | Blame_wait of wait
      (** the core could not issue; {!blame_of} names the peer it waits on *)
  | Blame_lockstep of { b_kind : Stats.stall_kind }
      (** coupled mode only: the core could issue but the stall bus held it
          for a peer whose dominant stall reason is [b_kind] *)

type probe = {
  on_core_cycles :
    (core:int -> pc:int -> k:int -> upto:int -> redo:bool -> blame_event -> unit)
    option;
      (** Every simulated core-cycle is reported exactly once, right where
          [Stats] counts it: the report covers the [k] identical cycles
          [\[upto-k+1, upto\]] ([k] > 1 under stall fast-forward). [pc] is
          the issue pc for {!Blame_busy} and the stuck pc otherwise; [redo]
          marks serial TM re-execution work. A [Blame_wait] on [W_asleep] or
          [W_halted] is an idle cycle; any other wait is a stall of
          {!stall_of_wait}.

          Reports arrive per core in time order, not in global cycle
          order: a decoupled core the fast-forward skips is credited after
          its window has ended (when it is next evaluated, when {!stats}
          is read, or at the end of {!run}), so [upto] may lie before
          {!now}. Likewise a coupled core in an elided NOP run (see
          DESIGN.md §10) has its bundles reported at settlement, one
          [Blame_busy] per bundle with its own pc and issue cycle: when
          the run ends, before the core's next report of a group stall,
          when {!stats} or {!pc} is read, in a diagnosis, or at the end of
          {!run}. Read the cycle from [upto], never from {!now}. *)
  on_event : (event -> unit) option;
      (** Mode changes, TM rounds and serial re-execution starts, as they
          happen. *)
  on_window : (from:int -> upto:int -> unit) option;
      (** At the end of every run-loop iteration, with the cycles
          [\[from, upto\]] it covered ([from < upto] across a stall
          fast-forward jump, in which no core issues). *)
  on_net : (Voltron_net.Operand_network.event -> unit) option;
  on_tm :
    (core:int -> Voltron_mem.Tm.action -> addr:int -> value:int -> unit) option;
      (** also every load and store (see {!Voltron_mem.Tm.set_monitor}) *)
  on_access :
    (core:int -> completion:int -> Voltron_mem.Coherence.kind -> int -> unit) option;
      (** see {!Voltron_mem.Coherence.set_monitor} *)
}
(** Every callback is read-only: it may inspect the machine (coherence,
    network, [now], [mode], [pc], [stats]) but not mutate it; any may call
    {!request_stop}. No probe changes how the machine steps: fast-forward
    is on exactly when {!Config.t.fast_forward} is set and no fault is
    injected, so a consumer that needs every cycle in order (the tracer)
    needs a machine created with [fast_forward = false]. *)

val null_probe : probe
(** Every field [None] — the base to set the fields one consumer needs. *)

val attach_probe : t -> probe -> unit
(** Attach a probe; call before {!run}. Probes compose field by field, in
    attach order; a field only one probe sets is called directly. The
    machine owns its network's, TM's and hierarchy's monitor slots and
    installs the composed [on_net], [on_tm] and [on_access] there. With no
    probe (the default) every report site pays one branch, no allocation. *)

val set_on_window : t -> (from:int -> upto:int -> unit) -> unit
(** [attach_probe] with only [on_window] set. *)

val request_stop : t -> unit
(** Ask the run loop to stop at the end of the current cycle with a
    {!Stopped} outcome carrying the usual structured diagnosis. Callable
    from any probe callback; idempotent. *)
