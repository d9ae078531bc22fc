(** Low-cost transactional memory for statistical DOALL loops (paper §3,
    and Lieberman et al. tech report [14]).

    A DOALL loop's iterations are split into chunks, one per core; each
    chunk runs as a transaction. During a transaction the core's stores are
    buffered (memory is untouched) and its loads are recorded; loads see the
    core's own buffered stores first, then pre-round memory. Chunks commit
    in iteration order (= core order). Core [i]'s transaction conflicts if
    it read an address written by any logically-earlier core [j < i] in the
    same round — core [i] would have needed [j]'s value. The machine then
    rolls the violating cores back (register rollback is the compiler's
    snapshot; memory rollback is simply discarding the write buffer) and
    re-executes their chunks serially. *)

type t

(** Runtime sanitizer hooks — one narrow callback per TM-visible event,
    all passive (the sanitizer mirrors buffers and shadow memory from
    them; it never mutates the TM). [tx] on read/write reports whether the
    access was inside a transaction (i.e. buffered). Every architectural
    memory access in the machine goes through {!read}/{!write}, so these
    two callbacks double as the machine-wide load/store event stream. *)
type monitor = {
  m_read : core:int -> addr:int -> value:int -> tx:bool -> unit;
  m_write : core:int -> addr:int -> value:int -> tx:bool -> unit;
  m_begin : core:int -> unit;
  m_commit : core:int -> unit;  (** after the buffer landed in memory *)
  m_abort : core:int -> unit;  (** after the buffer was discarded *)
}

val create : Memory.t -> n_cores:int -> t

val set_monitor : t -> monitor -> unit

val test_leak_next_abort : t -> unit
(** Arm a one-shot sabotage: the next {!abort} of a transaction with a
    non-empty write buffer silently writes its first buffered store to
    memory before discarding the buffer — a broken rollback, invisible to
    the recovery machinery, for the sanitizer's TM oracle to catch.
    Test-only. *)

val in_tx : t -> core:int -> bool

val tx_begin : t -> core:int -> unit
(** Raises [Invalid_argument] if the core is already in a transaction. *)

val read : t -> core:int -> int -> int
(** Transactional read when the core is in a transaction (recorded in the
    read set, sees own buffered writes), plain memory read otherwise. *)

val write : t -> core:int -> int -> int -> unit
(** Buffered inside a transaction, direct to memory otherwise. *)

val abort : t -> core:int -> unit
(** Discard the core's buffered writes and read set. *)

val commit_round : t -> cores:int list -> [ `All_committed | `Conflict_at of int ]
(** Commit the listed cores' transactions in list order (= logical
    iteration order). On the first core whose read set intersects the
    writes already committed this round by earlier listed cores, stop:
    earlier cores stay committed, the conflicting core and all later listed
    cores are aborted, and [`Conflict_at core] identifies the first
    violator (the machine re-runs from there serially). *)
