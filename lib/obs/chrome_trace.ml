module Machine = Voltron_machine.Machine
module Stats = Voltron_machine.Stats
module Inst = Voltron_isa.Inst

let mode_name = Tabulate.mode_name

let event ~name ~cat ~ph ~ts ~tid extra =
  Json.Obj
    ([
       ("name", Json.Str name);
       ("cat", Json.Str cat);
       ("ph", Json.Str ph);
       ("ts", Json.Int ts);
       ("pid", Json.Int 0);
       ("tid", Json.Int tid);
     ]
    @ extra)

let thread_name ~tid name =
  Json.Obj
    [
      ("name", Json.Str "thread_name");
      ("ph", Json.Str "M");
      ("pid", Json.Int 0);
      ("tid", Json.Int tid);
      ("args", Json.Obj [ ("name", Json.Str name) ]);
    ]

let of_trace ~n_cores ~cycles trace =
  let machine_tid = n_cores in
  let meta =
    List.init n_cores (fun c -> thread_name ~tid:c (Printf.sprintf "core %d" c))
    @ [ thread_name ~tid:machine_tid "machine" ]
  in
  (* Events are collected with their cycle and stable-sorted at the end:
     flow endpoints are only emitted once their pair is seen, which is
     after (in recording order) events that happened later than the "s"
     endpoint's cycle. The sort restores nondecreasing timestamps. *)
  let rev_events =
    ref
      [
        ( 0,
          event ~name:(mode_name Inst.Decoupled) ~cat:"mode" ~ph:"B" ~ts:0
            ~tid:machine_tid [] );
      ]
  in
  let push ts e = rev_events := (ts, e) :: !rev_events in
  (* Flow-event pairing. Each send->recv pair becomes a flow arrow: a "s"
     record at the send cycle on the sender's track and a binding-point "f"
     at the receive cycle on the receiver's track, sharing a fresh id.
     Channels deliver FIFO, so a per-(src, dst) queue of unmatched Sent
     cycles pairs them; likewise each TM serial re-execution start draws an
     arrow from the abort's tm-round instant. A truncated trace can lose
     one endpoint — such flows are culled (never emitted half-open, which
     renders as an arrow to nowhere) and counted in the footer. *)
  let next_flow = ref 0 in
  let culled_flows = ref 0 in
  let pending_sent : (int * int, int Queue.t) Hashtbl.t = Hashtbl.create 16 in
  let last_conflict = ref None in
  let flow ~name ~ts_from ~tid_from ~ts_to ~tid_to =
    let id = !next_flow in
    incr next_flow;
    push ts_from
      (event ~name ~cat:"flow" ~ph:"s" ~ts:ts_from ~tid:tid_from
         [ ("id", Json.Int id) ]);
    push ts_to
      (event ~name ~cat:"flow" ~ph:"f" ~ts:ts_to ~tid:tid_to
         [ ("id", Json.Int id); ("bp", Json.Str "e") ])
  in
  List.iter
    (fun ev ->
      match ev with
      | Trace.Issue { cycle; core; pc; ops } ->
        push cycle
          (event
             ~name:(Printf.sprintf "issue @%d" pc)
             ~cat:"issue" ~ph:"X" ~ts:cycle ~tid:core
             [
               ("dur", Json.Int 1);
               ( "args",
                 Json.Obj [ ("pc", Json.Int pc); ("ops", Json.Int ops) ] );
             ])
      | Trace.Stall { cycle; core; kind } ->
        push cycle
          (event ~name:(Stats.stall_kind_label kind) ~cat:"stall" ~ph:"i" ~ts:cycle
             ~tid:core
             [ ("s", Json.Str "t") ])
      | Trace.Machine_event (Machine.Mode_change { cycle; mode }) ->
        push cycle
          (event ~name:"mode" ~cat:"mode" ~ph:"E" ~ts:cycle ~tid:machine_tid []);
        push cycle
          (event ~name:(mode_name mode) ~cat:"mode" ~ph:"B" ~ts:cycle
             ~tid:machine_tid [])
      | Trace.Spawned { cycle; by; target } ->
        push cycle
          (event ~name:"spawn" ~cat:"spawn" ~ph:"i" ~ts:cycle ~tid:by
             [
               ("s", Json.Str "t");
               ("args", Json.Obj [ ("target", Json.Int target) ]);
             ])
      | Trace.Machine_event (Machine.Tm_round { cycle; conflict_at }) ->
        (match conflict_at with
        | Some _ -> last_conflict := Some cycle
        | None -> ());
        push cycle
          (event ~name:"tm-round" ~cat:"tm" ~ph:"i" ~ts:cycle ~tid:machine_tid
             [
               ("s", Json.Str "t");
               ( "args",
                 Json.Obj
                   [
                     ( "conflict_at",
                       match conflict_at with
                       | Some c -> Json.Int c
                       | None -> Json.Null );
                   ] );
             ])
      | Trace.Sent { cycle; src; dst } ->
        let q =
          match Hashtbl.find_opt pending_sent (src, dst) with
          | Some q -> q
          | None ->
            let q = Queue.create () in
            Hashtbl.add pending_sent (src, dst) q;
            q
        in
        Queue.push cycle q
      | Trace.Recvd { cycle; core; sender } -> (
        match Hashtbl.find_opt pending_sent (sender, core) with
        | Some q when not (Queue.is_empty q) ->
          let sent = Queue.pop q in
          flow ~name:"msg" ~ts_from:sent ~tid_from:sender ~ts_to:cycle
            ~tid_to:core
        | Some _ | None ->
          (* The matching Sent fell past the tracer's limit. *)
          incr culled_flows)
      | Trace.Machine_event (Machine.Serial_start { cycle; core }) -> (
        match !last_conflict with
        | Some abort_cycle ->
          flow ~name:"tm-retry" ~ts_from:abort_cycle ~tid_from:machine_tid
            ~ts_to:cycle ~tid_to:core
        | None -> incr culled_flows))
    (Trace.events trace);
  (* Sent events whose Recvd fell past the limit: their arrows are culled
     too, so the footer still accounts for every recorded endpoint. *)
  Hashtbl.iter
    (fun _ q -> culled_flows := !culled_flows + Queue.length q)
    pending_sent;
  push cycles
    (event ~name:"mode" ~cat:"mode" ~ph:"E" ~ts:cycles ~tid:machine_tid []);
  let timed =
    List.stable_sort
      (fun (a, _) (b, _) -> compare a b)
      (List.rev !rev_events)
  in
  Json.Obj
    [
      ("traceEvents", Json.List (meta @ List.map snd timed));
      ("displayTimeUnit", Json.Str "ms");
      ( "otherData",
        Json.Obj
          [
            ("n_cores", Json.Int n_cores);
            ("cycles", Json.Int cycles);
            ("dropped_events", Json.Int (Trace.dropped trace));
            ("culled_flows", Json.Int !culled_flows);
          ] );
    ]

let write ~path ~n_cores ~cycles trace =
  Json.write_file path (of_trace ~n_cores ~cycles trace)
