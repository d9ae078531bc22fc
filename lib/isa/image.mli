(** Per-core code images.

    Each Voltron core fetches from its own instruction space (paper §3.2:
    "the instructions for each core are located in different memory
    spaces"), so a logical label resolves to a different physical address in
    every core's image. An image is a flat array of bundles plus the
    label→address map for that core. *)

type t

(** Predecoded form of one bundle, built once at {!finish} time: packed op
    array, precomputed register sets and op-class counts, so per-cycle
    consumers (the simulator's fetch/issue loop) never re-walk the
    [Inst.t list] or re-allocate [Inst.uses] results, and a width check
    ({!Bundle.legal}) reduces to comparing [d_real_ops - d_n_comm],
    [d_n_comm] and [d_n_branch] with the widths. Immutable. *)
type decoded = {
  d_ops : Inst.t array;  (** bundle ops, in issue order *)
  d_comm_out : bool array;  (** per op: PUT/BCAST/SEND/SPAWN (phase 1) *)
  d_uses : int array array;  (** per op: source registers, in operand order *)
  d_pbr_addr : int array;
      (** per op: a PBR's resolved target address; -1 for other ops and for
          a label absent from this image *)
  d_defs : int array;  (** registers written, in op order *)
  d_srcs : int array;  (** dedup union of all uses (the snapshot set) *)
  d_max_reg : int;  (** max register mentioned anywhere, -1 if none *)
  d_real_ops : int;  (** non-NOP op count *)
  d_n_mem : int;  (** memory-class ops (incl. TM_BEGIN/TM_COMMIT) *)
  d_n_comm : int;  (** communication-class ops *)
  d_n_muldiv : int;  (** MUL/DIV/REM/FPU ops *)
  d_n_branch : int;  (** BR ops (a legal bundle has at most one) *)
  d_has_comm_out : bool;
  d_ends_block : bool;  (** contains BR/HALT/SLEEP/MODE_SWITCH *)
}

type builder

val builder : unit -> builder

val place_label : builder -> Inst.label -> unit
(** Bind a label to the next emitted bundle's address. Rebinding a label is
    an error. *)

val emit : builder -> Bundle.t -> unit

val emit_all : builder -> Bundle.t list -> unit

val next_addr : builder -> int
(** Address the next [emit] will occupy. *)

val finish : builder -> t

val length : t -> int
val fetch : t -> int -> Bundle.t
(** Raises [Invalid_argument] outside [0, length). *)

val decoded : t -> int -> decoded
(** The predecoded form of the bundle at that address. Raises
    [Invalid_argument] outside [0, length). *)

val enclosing_label : t -> int -> string
(** Nearest label at or before the address (alphabetically first when
    several share it), ["<entry>"] when none — precomputed, O(1). *)

val resolve : t -> Inst.label -> int
(** Raises [Not_found] for labels absent from this image. *)

val has_label : t -> Inst.label -> bool
val labels_at : t -> int -> Inst.label list

val pp : Format.formatter -> t -> unit
(** Disassembly listing with labels. *)
