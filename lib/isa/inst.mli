(** The Voltron instruction set.

    An HPL-PD-flavoured VLIW ISA (paper §3, Fig. 4) extended with the
    dual-mode scalar-operand-network operations:

    - direct mode (coupled execution): [Put]/[Get] move a register value to
      an adjacent core in one cycle, [Bcast]/[Getb] broadcast a branch
      condition to all cores;
    - queue mode (decoupled execution): [Send]/[Recv] communicate
      asynchronously through send/receive queues with sender-id matching;
    - thread control: [Spawn] starts a fine-grain thread on an idle core,
      [Sleep] ends one;
    - [Mode_switch] flips the machine between coupled and decoupled
      execution and acts as a barrier when entering coupled mode;
    - [Tm_begin]/[Tm_commit] bracket a speculative chunk of a statistical
      DOALL loop on the low-cost transactional memory.

    Branches are unbundled as in HPL-PD: [Pbr] writes a branch-target
    register, a compare computes the predicate, and [Br] transfers control.

    Values are machine integers; floating-point opcodes exist as a latency
    class only (see DESIGN.md §2). *)

type core_id = int

type reg = int
(** General-purpose register index within a core's register file. *)

type btr = int
(** Branch-target register index. *)

type label = string
(** Code labels, resolved per core image: the same logical label names a
    different physical address in each core's instruction space. *)

type dir = North | South | East | West

type recv_kind =
  | Rv_data  (** ordinary scalar operand *)
  | Rv_pred  (** branch condition *)
  | Rv_sync  (** dummy value: memory-dependence or region join sync *)

type mode = Coupled | Decoupled

type alu_op =
  | Add | Sub | Mul | Div | Rem
  | And | Or | Xor | Shl | Shr
  | Min | Max

type fpu_op = Fadd | Fsub | Fmul | Fdiv

type cmp_op = Eq | Ne | Lt | Le | Gt | Ge

type operand = Reg of reg | Imm of int

type t =
  | Alu of { op : alu_op; dst : reg; src1 : operand; src2 : operand }
  | Fpu of { op : fpu_op; dst : reg; src1 : operand; src2 : operand }
  | Cmp of { op : cmp_op; dst : reg; src1 : operand; src2 : operand }
  | Select of { dst : reg; pred : operand; if_true : operand; if_false : operand }
  | Load of { dst : reg; base : operand; offset : operand }
  | Store of { base : operand; offset : operand; src : operand }
  | Mov of { dst : reg; src : operand }
  | Pbr of { btr : btr; target : label }
  | Br of { btr : btr; pred : operand option; invert : bool }
      (** Taken iff [pred] is absent (unconditional), or truthy and not
          [invert], or falsy and [invert]. *)
  | Bcast of { src : operand }
  | Getb of { dst : reg }
  | Put of { dir : dir; src : operand }
  | Get of { dir : dir; dst : reg }
  | Send of { target : core_id; src : operand }
  | Recv of { sender : core_id; dst : reg; kind : recv_kind }
      (** [kind] classifies the receive so the simulator can attribute its
          stalls separately (paper Fig. 12). *)
  | Spawn of { target : core_id; entry : label }
  | Sleep
  | Mode_switch of mode
  | Tm_begin
  | Tm_commit
  | Halt
  | Nop

type unit_class = Compute | Memory | Commun | Control
(** Functional-unit class used by bundle legality checks and the
    schedulers: per Fig. 4(b) a core has compute FUs, a memory FU and a
    communication FU; control ops steer the fetch unit. *)

val unit_class : t -> unit_class

val defs : t -> reg list
(** General registers written. *)

val uses : t -> reg list
(** General registers read. *)

val is_branch : t -> bool
(** Control ops that may change the PC ([Br] only). *)

val is_comm_out : t -> bool
(** Communication-out ops ([Put]/[Bcast]/[Send]/[Spawn]): executed in the
    machine's phase 1, before any core's main phase, so same-cycle PUT/GET
    and BCAST pairing works across cores. *)

val opposite : dir -> dir
(** [opposite North = South] etc. — the direction a value put eastward is
    received from. *)

val dir_name : dir -> string
(** ["north"], ["south"], ["east"], ["west"]: the diagnostics' spelling. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
val pp_mode : Format.formatter -> mode -> unit
