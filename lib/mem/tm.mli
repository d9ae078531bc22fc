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

(** One TM-visible action. Every architectural load and store goes through
    {!read}/{!write}, so the [Read*]/[Write*] actions are the machine-wide
    load/store stream; the [_tx] forms are accesses inside a transaction
    (i.e. buffered). [Commit] is reported after the buffer landed in
    memory, [Abort] after it was discarded. *)
type action = Begin | Commit | Abort | Read | Read_tx | Write | Write_tx

val create : Memory.t -> n_cores:int -> t

val set_monitor : t -> (core:int -> action -> addr:int -> value:int -> unit) -> unit
(** The one slot, which the machine owns (its probes' [on_tm]); a later
    call replaces it. Each call reports one action with its address and
    the value read or written ([0] for both on [Begin], [Commit] and
    [Abort]); nothing is allocated for it. Passive — the callback must not
    mutate the TM. *)

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
