(** Chrome trace-event export.

    Converts a recorded {!Trace.t} into the Chrome
    trace-event JSON format (the object form, ["traceEvents"]) loadable
    in [chrome://tracing] / Perfetto. One timeline track per core
    (issues as 1-cycle ["X"] complete events, stalls as ["i"] instants)
    plus a machine track (tid = [n_cores]) carrying the execution-mode
    B/E spans, spawn and TM-round instants. Timestamps are simulated
    cycles, written as microseconds.

    Cross-core dependences render as flow arrows: every send->recv pair
    becomes an ["s"]/["f"] flow from the sender's track at the send cycle
    to the receiver's at the receive cycle, and every TM serial
    re-execution start an arrow from the aborting round's instant. When
    the tracer hit its event limit, a flow can lose one endpoint; such
    flows are culled rather than drawn half-open, and the count is
    reported as [otherData.culled_flows] beside [dropped_events]. *)

val of_trace :
  n_cores:int -> cycles:int -> Trace.t -> Json.t
(** [cycles] closes the final mode span — pass the run's cycle count.
    The machine starts decoupled, so a ["decoupled"] span opens at ts 0;
    every mode change closes the open span and
    opens the next, and the last one closes at [cycles]. B/E events are
    balanced by construction and timestamps are nondecreasing in event
    order. *)

val write :
  path:string -> n_cores:int -> cycles:int -> Trace.t -> unit
