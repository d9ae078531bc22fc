(** Domain pool for campaign sweeps: one index cursor per batch.

    Each parallel call is one batch. The caller and up to [jobs - 1]
    helper domains, spawned for the batch and joined at its end, claim
    cell indices in order from one shared atomic cursor until the batch
    is exhausted. No domain outlives its batch, so nothing idles between
    sweeps and a batch never runs more than [jobs] cells at once. A call
    made from inside a cell runs serially in that cell's domain.

    Determinism contract: {!parallel_map} writes each result into its
    input slot, so the output order never depends on the completion
    order, and [jobs = 1] spawns nothing — a plain left-to-right
    [Array.map], the bit-identical serial reference every parallel sweep
    is compared against. *)

val default_jobs : unit -> int
(** Worker budget when the caller does not pass [?jobs]: the
    [VOLTRON_JOBS] environment variable if it parses as a positive
    integer, otherwise [Domain.recommended_domain_count ()]. *)

val parallel_map : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [parallel_map ~jobs f xs] is [Array.map f xs] computed by up to
    [jobs] domains (the caller plus [jobs - 1] helpers, at most 112).
    Results are in input order regardless of completion order.

    [jobs] defaults to {!default_jobs}. With [jobs <= 1], fewer than two
    elements, or a call from inside another batch's cell, the map runs
    serially, left-to-right, in the calling domain.

    [f] runs concurrently on several domains: it must not touch shared
    mutable state. If one or more applications raise, the remaining
    unstarted cells are skipped and the first exception recorded is
    re-raised in the caller (with its backtrace) after every started
    cell has finished. *)

val parallel_map_emit :
  ?jobs:int -> emit:(int -> 'b -> unit) -> ('a -> 'b) -> 'a array -> 'b array
(** Like {!parallel_map}, but [emit i (f xs.(i))] is called exactly once
    per element, serialized under a lock and in strict index order, as
    soon as every element [<= i] has completed — a completion frontier.
    Progress lines and per-cell reports printed from [emit] are
    therefore byte-identical for every [jobs] value, even though cells
    complete out of order. [emit] runs on whichever domain completed the
    frontier cell; exceptions from [f] suppress all further emits. *)
