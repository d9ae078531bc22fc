(** Ergonomic construction of {!Hir} programs.

    The builder allocates fresh virtual registers and site ids, tracks the
    current emission point through nested control structure, and packages
    the result as an immutable {!Hir.program}. Workload kernels are written
    against this API; see [lib/workloads] and [examples/]. *)

type t

val create : string -> t

val array : t -> name:string -> size:int -> ?init:(int -> int) -> unit -> Hir.arr
(** Declare a data array. *)

val fresh : t -> Hir.vreg
(** A fresh virtual register (rarely needed directly — expression helpers
    allocate their own destinations). *)

val region : t -> string -> (unit -> unit) -> unit
(** [region t name body] opens a named region — the compiler's unit of
    strategy selection — and runs [body] to emit its statements. Regions
    cannot nest. *)

(** {1 Expressions} — each emits an [Assign] to a fresh register and
    returns it as an operand. *)

val imm : int -> Hir.operand
val binop : t -> Voltron_isa.Inst.alu_op -> Hir.operand -> Hir.operand -> Hir.operand
val cmp : t -> Voltron_isa.Inst.cmp_op -> Hir.operand -> Hir.operand -> Hir.operand
val select : t -> Hir.operand -> Hir.operand -> Hir.operand -> Hir.operand
val load : t -> Hir.arr -> Hir.operand -> Hir.operand
val mov : t -> Hir.operand -> Hir.operand

val add : t -> Hir.operand -> Hir.operand -> Hir.operand
val sub : t -> Hir.operand -> Hir.operand -> Hir.operand
val mul : t -> Hir.operand -> Hir.operand -> Hir.operand

val assign : t -> Hir.vreg -> Hir.expr -> unit
(** Assign to an existing register — used for accumulators, whose
    cross-iteration dependence the compiler must see. *)

(** {1 Statements} *)

val store : t -> Hir.arr -> Hir.operand -> Hir.operand -> unit

val if_ : t -> Hir.operand -> (unit -> unit) -> (unit -> unit) -> unit

val for_ :
  t -> ?step:int -> from:Hir.operand -> limit:Hir.operand -> (Hir.operand -> unit) -> unit
(** [for_ t ~from ~limit body] iterates a fresh induction variable over
    [\[from, limit)] and passes it to [body]. [step] defaults to 1. *)

val do_while : t -> (unit -> Hir.operand) -> unit
(** [do_while t body]: [body] emits the loop body and returns the continue
    condition it computed. *)

val finish : t -> Hir.program
(** Raises [Invalid_argument] if called inside an open region. *)
