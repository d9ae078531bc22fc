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

(** One event per TM-visible action, built only when a monitor is set.
    Every architectural load and store goes through {!read}/{!write}, so
    [Ev_read]/[Ev_write] are the machine-wide load/store stream; [tx] says
    whether the access was inside a transaction (i.e. buffered). *)
type event =
  | Ev_begin of { core : int }
  | Ev_commit of { core : int }  (** after the buffer landed in memory *)
  | Ev_abort of { core : int }  (** after the buffer was discarded *)
  | Ev_read of { core : int; addr : int; value : int; tx : bool }
  | Ev_write of { core : int; addr : int; value : int; tx : bool }

val create : Memory.t -> n_cores:int -> t

val set_monitor : t -> (event -> unit) -> unit
(** The one slot, which the machine owns (its probes' [on_tm]); a later
    call replaces it. Passive — the callback must not mutate the TM. *)

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
