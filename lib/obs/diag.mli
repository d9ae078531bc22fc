(** JSON export of the machine's structured watchdog diagnosis, so a
    deadlock, fault-limit or sanitizer stop in [run --json] is machine
    readable — the same information {!Voltron_machine.Machine.diagnosis_to_string}
    renders for humans. *)

val diagnosis_to_json : Voltron_machine.Machine.diagnosis -> Json.t
(** Object shape: [cycle], [last_progress], [mode], [cores] (array of
    [{core, pc, wait, bundle}] — [wait] is null for a core that could
    issue), [queue] (array of [{src, dst, state}] in-flight messages) and
    [blame] ([[waiter, culprit]] or null). *)
