(** VLIW bundles: the set of operations one core issues in one cycle.

    Per Fig. 4(b) a core feeds one main pipeline (compute / memory /
    control ops) and a separate communication unit, so a legal bundle holds
    at most [issue_width] main ops and [comm_width] communication ops, and
    at most one branch (which takes effect after every other op in the
    bundle). The empty bundle is an implicit NOP cycle. *)

type t = Inst.t list

val empty : t
val is_empty : t -> bool

val branch : t -> Inst.t option
(** The bundle's branch, if any. *)

val legal : issue_width:int -> comm_width:int -> t -> bool

val check : issue_width:int -> comm_width:int -> t -> unit
(** Raises [Invalid_argument] with a diagnostic when the bundle is not
    legal. *)

val defs : t -> Inst.reg list
val uses : t -> Inst.reg list

val pp : Format.formatter -> t -> unit
