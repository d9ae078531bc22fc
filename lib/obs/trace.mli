(** Structured execution traces.

    A tracer is an ordinary consumer of the machine's probe stream
    ({!attach}): it records issue, stall, mode-switch, spawn, message and
    transactional events up to a configurable limit (events past the limit
    are counted but not stored). Post-run, {!report} renders a cycle
    timeline and {!hotspots} aggregates issue counts by code label — the
    tool one actually wants when asking "where do the cycles go?".

    The timeline lists every core-cycle in the order the per-cycle sweep
    visits it, so it needs a machine that steps cycle by cycle: one created
    with [fast_forward = false]. Under fast-forward, deferred credits would
    arrive out of cycle order. *)

type event =
  | Issue of { cycle : int; core : int; pc : int; ops : int }
  | Stall of { cycle : int; core : int; kind : Voltron_machine.Stats.stall_kind }
  | Spawned of { cycle : int; by : int; target : int }
  | Sent of { cycle : int; src : int; dst : int }
      (** queue-mode SEND entered the network (blame-edge tail) *)
  | Recvd of { cycle : int; core : int; sender : int }
      (** RECV consumed a message (blame-edge head; pairs with the [Sent]
          of the same (src, dst) channel in FIFO order) *)
  | Machine_event of Voltron_machine.Machine.event
      (** a mode change, TM round or serial re-execution start *)

type t

val create : ?limit:int -> unit -> t
(** [limit] caps stored events (default 100_000). *)

val attach : Voltron_machine.Machine.t -> t -> Voltron_isa.Program.t -> unit
(** Record the run of a machine created from that program. Call before
    {!Voltron_machine.Machine.run}; composes with any other probe. Raises
    [Invalid_argument] when the machine's configuration has
    [fast_forward] set. *)

val events : t -> event list
(** In recording order. *)

val dropped : t -> int
(** Events beyond the limit (counted, not stored). *)

type hotspot = {
  hs_core : int;
  hs_label : string;  (** nearest preceding label in that core's image *)
  hs_issues : int;
  hs_ops : int;
}

val hotspots : t -> Voltron_isa.Program.t -> hotspot list
(** Issue counts aggregated by (core, enclosing label), hottest first. *)

val report :
  ?timeline:int -> Format.formatter -> t -> Voltron_isa.Program.t -> unit
(** Print the first [timeline] events (default 60) and the hotspot table,
    ending with a "… N events dropped (limit L)" footer whenever the
    tracer hit its cap. *)
