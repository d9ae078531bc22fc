(** Interval × congruence abstract domain for machine integers.

    An element over-approximates a set of concrete values with
    - an interval [lo, hi] where [min_int]/[max_int] act as -∞/+∞, and
    - a congruence (m, r): every value ≡ r (mod m). [m = 0] means the
      exact constant [r]; [m = 1] carries no information.

    Soundness under native wrap-around: the concrete semantics
    ({!Voltron_isa.Semantics}) computes on OCaml's native ints, which
    wrap silently. Finite interval bounds are kept below 2^60 in
    magnitude so additive transfer functions cannot wrap; any operation
    whose concrete result could exceed the native range degrades the
    interval to ⊤. Congruence information survives a potential wrap only
    for power-of-two moduli (2^63 ≡ 0 mod 2^k). *)

type t = private { lo : int; hi : int; m : int; r : int }

val top : t
val bot : t
val const : int -> t
val range : int -> int -> t
(** [range lo hi] with [min_int]/[max_int] acting as infinities. *)

val with_stride : m:int -> r:int -> t -> t
(** Intersect [t] with the congruence class r (mod m). *)

val is_bot : t -> bool
val is_const : t -> int option
val equal : t -> t -> bool

val join : t -> t -> t
val meet : t -> t -> t
val widen : t -> t -> t
(** [widen old next]: extrapolates unstable interval bounds to ±∞;
    congruence uses plain join (its gcd chains are finite). *)

val alu : Voltron_isa.Inst.alu_op -> t -> t -> t
(** Transfer function mirroring {!Voltron_isa.Semantics.alu}, including
    division/remainder by zero yielding 0 and shift amounts masked to
    5 bits. {!Voltron_isa.Semantics.fpu} ops are the matching integer
    ops and reuse these transfers. *)

val cmp : Voltron_isa.Inst.cmp_op -> t -> t -> t
(** Result ⊆ [0, 1]; folds to a constant when the intervals or
    congruences decide the comparison. *)

val contains : t -> int -> bool
val contains_zero : t -> bool

val may_equal : t -> t -> bool
(** Can the two abstractions share a concrete value? [false] is a proof
    of disjointness: intervals do not overlap, or the congruence classes
    are incompatible ((r1 - r2) mod gcd(m1, m2) <> 0). *)

val add_const : t -> int -> t

val loop_var : init:t -> limit:t -> step:int -> t
(** Abstraction of a counted-loop induction variable at the loop head:
    interval [init.lo, limit.hi - 1] with stride [step] anchored at
    [init]. Requires that the variable is not reassigned in the body;
    [step <= 0] yields ⊤. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
