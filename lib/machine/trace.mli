(** Structured execution traces.

    A tracer fed by a machine probe ([{ Machine.null_probe with on_event =
    Some (Trace.record tr) }]) records issue, stall, mode-switch, spawn,
    message and transactional events up to a configurable limit (events past
    the limit are counted but not stored). Post-run, {!report} renders a
    cycle timeline and {!hotspots} aggregates issue counts by code label —
    the tool one actually wants when asking "where do the cycles go?". *)

type event =
  | Issue of { cycle : int; core : int; pc : int; ops : int }
  | Stall of { cycle : int; core : int; kind : Stats.stall_kind }
  | Mode_change of { cycle : int; mode : Voltron_isa.Inst.mode }
  | Spawned of { cycle : int; by : int; target : int }
  | Tm_round of { cycle : int; conflict_at : int option }
  | Sent of { cycle : int; src : int; dst : int }
      (** queue-mode SEND entered the network (blame-edge tail) *)
  | Recvd of { cycle : int; core : int; sender : int }
      (** RECV consumed a message (blame-edge head; pairs with the [Sent]
          of the same (src, dst) channel in FIFO order) *)
  | Serial_start of { cycle : int; core : int }
      (** the core began serial re-execution of its aborted TM chunk *)

type t

val create : ?limit:int -> unit -> t
(** [limit] caps stored events (default 100_000). *)

val record : t -> event -> unit
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
