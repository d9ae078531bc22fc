(** Cross-core critical path and Coz-style what-if estimates — the causal
    profiler's analysis half, over a {!Blame} recording.

    The critical path is computed by a backward walk from the end of the
    run: starting on the core that computed last, each step either {e
    consumes} a span of cycles on the current core (compute, a cache fill,
    a wire transit) or {e hops} to the core the wait blames — the message
    sender for a net wait (via the recorded delivery, at its enqueue
    cycle), the straggler for a barrier or commit wait, the token holder
    for a TM serial wait. Consumed spans tile the run's cycle range with
    no gap or overlap, so the path length equals the end-to-end cycle
    count {e exactly} — the reconciliation invariant the tests assert.

    What-if estimates rescale one edge class along the path and report the
    predicted run length, the causal-profiling counterpart of Coz's
    virtual speedups: shortening an edge off the critical path predicts
    nothing, which is the whole point. *)

type seg = {
  g_core : int;
  g_kind : Blame.kind;
  g_peer : int;  (** message sender / blamed core, [-1] for none *)
  g_region : int;
  g_mode : int;
  g_redo : bool;
  g_from : int;  (** first cycle, inclusive *)
  g_to : int;  (** last cycle, inclusive *)
}

type t

val compute : Blame.t -> t
(** Walk a finished run's recording. Raises [Failure] when the recording
    has a coverage gap (see {!Blame.coverage}) the walk falls into. *)

val total : t -> int
(** The run's end-to-end cycle count. *)

val length : t -> int
(** Sum of path-segment lengths — equals {!total} by construction; the
    tests assert it anyway. *)

val segments : t -> seg list
(** In forward time order; spans tile [1 .. total]. *)

val whatif_net : t -> scale:float -> int
(** Predicted run length with the per-hop network cost scaled by [scale]
    (0 = free wires): every wire span on the path shrinks by its message's
    transit reduction, capped by the span itself. *)

val whatif_tm : t -> int
(** Predicted run length with no TM conflicts: serial re-execution work
    and serial-token waits drop off the path. *)

(** {1 Report} *)

type row = {
  b_kind : Blame.kind;
  b_region : string;
  b_mode : int;  (** 0 coupled, 1 decoupled *)
  b_core : int;
  b_peer : int;
  b_cycles : int;  (** path cycles attributed to this (edge, region,
                       mode, core-pair) cell *)
}

type whatif = { w_class : string; w_predicted : int; w_speedup : float }

type report = {
  r_bench : string;
  r_strategy : string;
  r_n_cores : int;
  r_cycles : int;
  r_path : int;
  r_rows : row list;  (** descending by cycles *)
  r_whatif : whatif list;
  r_tm : (string * int * int * int) list;
      (** per-region (begins, commits, aborts) *)
  r_wait : int array array;  (** {!Blame.wait_matrix} *)
  r_msgs : int array array;  (** {!Blame.msgs_matrix} *)
}

val report :
  bench:string -> strategy:string -> ?net_scale:float -> t -> report
(** Aggregate the path into the blame table plus the standard what-if
    estimates: network hop cost scaled by [net_scale] (default 0) and TM
    aborts removed. *)

val pp_report : ?top:int -> Format.formatter -> report -> unit
(** Header, top-[top] (default 12) blame rows, what-if lines, and — when
    present — the per-region TM table and the cross-core wait matrix. *)

val report_to_json : report -> Json.t
