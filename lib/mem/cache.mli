(** Set-associative cache directory: tags, MOESI states and LRU order.

    Holds no data (see {!Memory}); it is the timing/state half of the
    hierarchy. Addresses given to this module are *line* addresses (word
    address divided by the line size — callers do the division).

    The tag store is flat: a handful of arrays indexed by slot
    ([set * ways + way]), so building a cache is a few allocations and a
    probe is index arithmetic. A hit path probes once with {!slot} and then
    works on the slot ({!slot_state}, {!touch_slot}, {!set_slot_state});
    {!find}, {!touch} and {!set_state} are the one-shot forms. *)

type state = M | O | E | S | I

type t

val create : sets:int -> ways:int -> t
(** [sets] must be a power of two. *)

val sets : t -> int
val ways : t -> int

val slot : t -> int -> int
(** [slot t line] is the slot holding [line] in a valid state, or [-1]
    when it is absent. Does not touch LRU. *)

val slot_state : t -> int -> state
(** State of a slot returned by {!slot}. *)

val touch_slot : t -> int -> unit
(** Mark a present slot most-recently used. *)

val set_slot_state : t -> int -> state -> unit
(** Change a present slot's state; [I] invalidates it. *)

val find : t -> int -> state option
(** [find t line] is the line's state if present and valid (not [I]);
    does not touch LRU. *)

val touch : t -> int -> unit
(** Mark [line] most-recently used. No-op if absent. *)

val set_state : t -> int -> state -> unit
(** Change a present line's state. Raises [Not_found] if absent. [I]
    invalidates. *)

val insert : t -> int -> state -> (int * state) option
(** [insert t line st] allocates [line] (MRU) and returns the evicted
    victim's line address and state, if a valid line was displaced. The line
    must not already be present. An invalid way is filled first (the lowest
    such way); only a full set evicts, and then its least-recently-used
    way. *)

val invalidate : t -> int -> unit
(** Drop the line if present. *)

val valid_lines : t -> (int * state) list
(** All valid lines with their states, for invariant checking. *)

val pp_state : Format.formatter -> state -> unit
