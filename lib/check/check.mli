(** Static cross-core checker for compiled Voltron programs.

    Runs after codegen, over the per-core images the machine will actually
    execute, and returns typed diagnostics with core/address locations.
    Four passes:

    - {b channel balance}: abstract-interprets each core's reconstructed
      control flow, counting queue messages per (src, dst) channel as
      symbolic linear forms over loop trip counts (named after shared
      labels) — on every path, SENDs into a channel must equal RECVs out
      of it, or a core waits forever.
    - {b barrier alignment}: every core reaches the same MODE_SWITCH
      sequence the same path-independent number of times with agreeing
      target modes; the machine's mode barrier requires {e every} core.
    - {b coupled-mode PUT/GET pairing}: lock-step blocks must have equal
      per-core schedules with each PUT paired to its neighbour's GET in
      the same cycle slot, and GETBs must not outrun their broadcast.
    - {b deadlock and races}: a cross-core wait-for graph over SENDs,
      RECVs, SPAWNs and barriers is checked for cycles (Tarjan SCC), and
      statically-addressed memory accesses on concurrent strands with no
      ordering edge between them are reported as data races; partition
      summaries recorded by codegen re-verify that possibly-aliasing
      operations were never split across cores in decoupled mode.

    The checker is sound about what it {e reports} (every error describes
    a failure the machine would hit) but deliberately incomplete:
    unresolvable branches, register-indirect addresses and data-dependent
    spawn counts degrade to warnings, never to guesses. *)

(** {1 Diagnostics} *)

type loc = { l_core : int; l_addr : int }
(** A bundle address on one core's image. *)

(** An endpoint of a wait-for edge. *)
type wait_node =
  | At of loc  (** a SEND, RECV, SPAWN or MODE_SWITCH on one core *)
  | Mode_barrier of int
      (** the k-th (1-based) MODE_SWITCH rendezvous: it waits on every
          core's arrival and releases every core's switch *)

type severity = Error | Warning

type kind =
  | Unbalanced_channel of {
      ch_src : int;
      ch_dst : int;
      sends : Lin.t;
      recvs : Lin.t;
    }
  | Net_misuse of Voltron_net.Operand_network.error
      (** a PUT/SEND that is statically certain to fail, rendered through
          the same printer the runtime watchdog uses *)
  | Put_get_mismatch of { pg_label : string; pg_slot : int; detail : string }
  | Coupled_length_mismatch of {
      cl_label : string;
      lengths : (int * int) list;  (** (core, bundles) *)
    }
  | Barrier_count_mismatch of {
      bc_mode : Voltron_isa.Inst.mode;
      counts : (int * Lin.t) list;  (** (core, switches executed) *)
    }
  | Misaligned_barrier of {
      ordinal : int;  (** 1-based barrier index *)
      modes : (int * Voltron_isa.Inst.mode) list;  (** per-core target *)
    }
  | Potential_deadlock of { edges : (wait_node * wait_node * string) list }
      (** wait-for cycle; each edge reads "fst waits on snd" *)
  | Data_race of {
      ra_addr : int;  (** memory word both strands touch *)
      writer : loc;
      other : loc;
      other_writes : bool;
    }
  | Partition_race of {
      region : string;
      core_a : int;
      core_b : int;
      detail : string;
    }
  | Malformed of string

type diag = { d_severity : severity; d_loc : loc option; d_kind : kind }

val pp_diag : Format.formatter -> diag -> unit
val diag_to_string : diag -> string

val errors : diag list -> diag list
(** Just the [Error]-severity diagnostics. *)

val has_errors : diag list -> bool

exception Failed of diag list
(** Raised by the compiler driver's post-codegen gate when the checker
    finds errors; carries the full diagnostic list (warnings included). *)

(** {1 Partition-side region summaries}

    Recorded by codegen while it still holds the dependence graph and the
    memory-dependence analysis, and handed to the checker so the
    decoupled-mode race pass can re-verify the partitioners' contract
    without re-deriving compiler state. *)

type region_access = {
  ma_id : int;  (** dependence-graph op index, identifies the op *)
  ma_core : int;  (** assigned core; [-1] for replicated ops *)
  ma_write : bool;
  ma_text : string;  (** disassembly, for the diagnostic *)
}

type region_info = {
  ri_name : string;
  ri_decoupled : bool;
  ri_accesses : region_access list;
  ri_may_alias : int -> int -> bool;
      (** [Memdep.ever_alias] between two accesses, by [ma_id] *)
}

(** {1 Entry point} *)

val check_program :
  ?infos:region_info list ->
  Voltron_machine.Config.t ->
  Voltron_isa.Program.t ->
  diag list
(** Run all passes; diagnostics come back in pass order. An empty list
    (or one with only warnings, see {!has_errors}) means the program
    passed. *)
