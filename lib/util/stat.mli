(** Small numeric helpers for summarising experiment results. *)

val mean : float list -> float
(** Arithmetic mean; 0. on the empty list. *)

val geomean : float list -> float
(** Geometric mean; 0. on the empty list. Requires positive elements. *)

val sum : float list -> float

val normalize : float list -> float list
(** Scale so the elements sum to 1. Identity on an all-zero list. *)

val percent : float -> float -> float
(** [percent part whole] is [100 * part / whole], 0 when [whole = 0]. *)
