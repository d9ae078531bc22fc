(** Deterministic pseudo-random number generator (SplitMix64).

    All stochastic behaviour in the simulator and the workload generators is
    driven through this module so that every experiment is reproducible from
    a seed. *)

type t

val create : int -> t
(** [create seed] makes a fresh generator. Equal seeds give equal streams. *)

val copy : t -> t
(** Independent copy continuing from the same state. *)

val next : t -> int
(** Next raw 62-bit non-negative value. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Requires [bound > 0]. *)

val in_range : t -> int -> int -> int
(** [in_range t lo hi] is uniform in [\[lo, hi\]]. Requires [lo <= hi]. *)

val range_stream : t -> n:int -> lo:int -> hi:int -> int -> int
(** [range_stream t ~n ~lo ~hi] is the [n] next [in_range t lo hi] draws
    as a pure function of the draw index [k] in [\[0, n)], computed on
    demand; [t] moves on as if the [n] draws had been made. Requires
    [lo <= hi] and [n >= 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val chance : t -> float -> bool
(** [chance t p] is [true] with probability [p]. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val split : t -> int -> t
(** [split t i] derives the [i]-th child generator of [t]'s current
    state: a statistically independent SplitMix64 stream per index,
    stable under any evaluation order. Pure — [t] is not advanced, and
    the same [(state, i)] pair always yields the same child. Campaigns
    use it to give every cell its own generator derived from the
    campaign seed. Requires [i >= 0]. *)
