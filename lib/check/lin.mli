(** Symbolic linear counting forms for the static checker.

    A form is [const + sum of coeff * var] over named symbolic variables.
    The checker uses variables for unknown-at-compile-time quantities that
    are nonetheless {e shared across cores} — loop trip counts named after
    the loop-header label ("iter:L3"), path-merge unknowns named after the
    join label ("phi:L7:send:0->1") — so two cores that communicate the
    same amount per iteration produce structurally equal forms even though
    neither count is a constant.

    Forms are closed under addition and multiplication: a product of
    variables is folded into a single canonical '*'-joined name, which
    makes structural equality coincide with semantic equality of the
    polynomial. *)

type t

val zero : t
val const_ : int -> t
val var_ : string -> t

val is_const : t -> int option
(** [Some c] when the form has no symbolic part. *)

val equal : t -> t -> bool

val add : t -> t -> t
val add_const : t -> int -> t
val scale : int -> t -> t

val min_ : t -> t -> t
(** Pointwise lower bound (min of constants and of each coefficient,
    absent terms counting as 0) — for nonnegative counts, the part both
    forms are guaranteed to share. *)

val drop_var : string -> t -> t
(** [drop_var v t] is [t] without its [v] term. *)

val mul_var : string -> t -> t
(** Multiply a whole form by one symbolic variable (e.g. a trip count). *)

val mul : t -> t -> t

val pp : Format.formatter -> t -> unit
val to_string : t -> string
