(* Tests for the network layer: mesh geometry and XY routing, direct-mode
   latches and broadcast timing, queue-mode delivery latency, sender
   matching, FIFO order, capacity backpressure, and spawn messages. *)

module Mesh = Voltron_net.Mesh
module Net = Voltron_net.Operand_network
module Inst = Voltron_isa.Inst

let mesh4 = Mesh.create 4
let mesh2 = Mesh.create 2

let test_mesh_geometry () =
  Alcotest.(check (pair int int)) "4-core is 2x2" (2, 2)
    (Mesh.columns mesh4, Mesh.rows mesh4);
  Alcotest.(check (pair int int)) "core 3 at (1,1)" (1, 1) (Mesh.coords mesh4 3);
  Alcotest.(check int) "hops 0-3" 2 (Mesh.hops mesh4 0 3);
  Alcotest.(check int) "hops 0-1" 1 (Mesh.hops mesh4 0 1);
  Alcotest.(check int) "diameter" 2 (Mesh.max_hops mesh4);
  Alcotest.(check int) "2-core diameter" 1 (Mesh.max_hops mesh2)

let test_mesh_neighbours () =
  Alcotest.(check (option int)) "0 east" (Some 1) (Mesh.neighbour mesh4 0 Inst.East);
  Alcotest.(check (option int)) "0 south" (Some 2) (Mesh.neighbour mesh4 0 Inst.South);
  Alcotest.(check (option int)) "0 west" None (Mesh.neighbour mesh4 0 Inst.West);
  Alcotest.(check (option int)) "3 north" (Some 1) (Mesh.neighbour mesh4 3 Inst.North)

let test_mesh_route () =
  let path = Mesh.path_cores mesh4 ~src:0 ~dst:3 in
  Alcotest.(check int) "path length" 3 (List.length path);
  Alcotest.(check bool) "starts at src" true (List.hd path = 0);
  Alcotest.(check bool) "ends at dst" true (List.nth path 2 = 3);
  Alcotest.(check (list int)) "self route empty" [ 0 ]
    (Mesh.path_cores mesh4 ~src:0 ~dst:0)

let mk_net mesh = Net.create mesh ~receive_capacity:4

let test_direct_put_get () =
  let n = mk_net mesh2 in
  (match Net.put n ~now:5 ~src_core:0 Inst.East 42 with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Net.put_error_to_string ~src_core:0 e));
  Alcotest.(check (option int)) "same-cycle get" (Some 42)
    (Net.get n ~now:5 ~core:1 Inst.West);
  Alcotest.(check (option int)) "latch drained" None
    (Net.get n ~now:5 ~core:1 Inst.West)

let test_direct_put_off_mesh () =
  let n = mk_net mesh2 in
  match Net.put n ~now:0 ~src_core:0 Inst.West 1 with
  | Error Net.Off_mesh -> ()
  | Error (Net.Latch_full _) -> Alcotest.fail "wrong error: latch full"
  | Ok () -> Alcotest.fail "put off the mesh must fail"

let test_direct_stale_get_detected () =
  let n = mk_net mesh2 in
  (match Net.put n ~now:1 ~src_core:0 Inst.East 7 with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Net.put_error_to_string ~src_core:0 e));
  (* A late GET is a lock-step violation: it gets nothing, and the stale
     value stays in the latch. *)
  Alcotest.(check (option int)) "late get refused" None
    (Net.get n ~now:3 ~core:1 Inst.West);
  Alcotest.(check bool) "stale value kept" false (Net.idle n)

let test_bcast_arrival_times () =
  let n = mk_net mesh4 in
  Net.bcast n ~now:10 ~src_core:0 99;
  (* Core 1 is 1 hop away: visible at 11, not at 10. *)
  Alcotest.(check (option int)) "too early" None (Net.getb n ~now:10 ~core:1);
  Alcotest.(check (option int)) "1 hop" (Some 99) (Net.getb n ~now:11 ~core:1);
  (* Core 3 is 2 hops away. *)
  Alcotest.(check bool) "2 hops not at 11" true (not (Net.getb_ready n ~now:11 ~core:3));
  Alcotest.(check (option int)) "2 hops at 12" (Some 99) (Net.getb n ~now:12 ~core:3);
  (* Consuming is per-core: core 1 cannot getb twice. *)
  Alcotest.(check (option int)) "consumed" None (Net.getb n ~now:13 ~core:1)

let test_queue_latency () =
  let n = mk_net mesh4 in
  (match Net.send n ~now:0 ~src:0 ~dst:3 (Net.Value 5) with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Net.send_error_to_string e));
  (* 1 cycle into the queue + 2 hops: ready at 3, so recv at 2 stalls. *)
  Alcotest.(check bool) "not ready at 2" false (Net.recv_ready n ~now:2 ~core:3 ~sender:0);
  Alcotest.(check (option int)) "ready at 3" (Some 5) (Net.recv n ~now:3 ~core:3 ~sender:0)

let test_queue_sender_matching () =
  let n = mk_net mesh4 in
  ignore (Net.send n ~now:0 ~src:1 ~dst:0 (Net.Value 11));
  ignore (Net.send n ~now:0 ~src:2 ~dst:0 (Net.Value 22));
  Alcotest.(check (option int)) "matches sender 2" (Some 22)
    (Net.recv n ~now:10 ~core:0 ~sender:2);
  Alcotest.(check (option int)) "matches sender 1" (Some 11)
    (Net.recv n ~now:10 ~core:0 ~sender:1)

let test_queue_fifo_per_pair () =
  let n = mk_net mesh4 in
  ignore (Net.send n ~now:0 ~src:0 ~dst:1 (Net.Value 1));
  ignore (Net.send n ~now:1 ~src:0 ~dst:1 (Net.Value 2));
  ignore (Net.send n ~now:2 ~src:0 ~dst:1 (Net.Value 3));
  (* List literals evaluate right-to-left; force receive order with init. *)
  let received = List.init 4 (fun _ -> Net.recv n ~now:50 ~core:1 ~sender:0) in
  Alcotest.(check (list (option int))) "fifo order"
    [ Some 1; Some 2; Some 3; None ]
    received

let test_queue_capacity () =
  let n = mk_net mesh4 in
  for i = 1 to 4 do
    match Net.send n ~now:i ~src:0 ~dst:1 (Net.Value i) with
    | Ok () -> ()
    | Error e -> Alcotest.fail (Net.send_error_to_string e)
  done;
  (match Net.send n ~now:5 ~src:0 ~dst:1 (Net.Value 5) with
  | Error Net.Channel_full -> ()
  | Error (Net.Bad_destination _) -> Alcotest.fail "wrong error: bad destination"
  | Ok () -> Alcotest.fail "channel over capacity");
  (* Capacity is per (sender, receiver) channel: another sender still gets
     through to the same receiver (a shared queue would deadlock
     rate-mismatched threads). *)
  (match Net.send n ~now:5 ~src:3 ~dst:1 (Net.Value 99) with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Net.send_error_to_string e));
  (* Draining one frees a slot. *)
  ignore (Net.recv n ~now:50 ~core:1 ~sender:0);
  match Net.send n ~now:51 ~src:0 ~dst:1 (Net.Value 5) with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Net.send_error_to_string e)

let test_spawn_start_message () =
  let n = mk_net mesh2 in
  ignore (Net.send n ~now:0 ~src:0 ~dst:1 (Net.Start 17));
  ignore (Net.send n ~now:0 ~src:0 ~dst:1 (Net.Value 5));
  (* take_start only sees Start messages; recv only Values. *)
  Alcotest.(check (option int)) "start" (Some 17) (Net.take_start n ~now:10 ~core:1);
  Alcotest.(check (option int)) "no more starts" None (Net.take_start n ~now:10 ~core:1);
  Alcotest.(check (option int)) "value intact" (Some 5)
    (Net.recv n ~now:10 ~core:1 ~sender:0)

let test_idle () =
  let n = mk_net mesh2 in
  Alcotest.(check bool) "initially idle" true (Net.idle n);
  ignore (Net.send n ~now:0 ~src:0 ~dst:1 (Net.Value 1));
  Alcotest.(check bool) "busy with message" false (Net.idle n);
  ignore (Net.recv n ~now:10 ~core:1 ~sender:0);
  Alcotest.(check bool) "idle after drain" true (Net.idle n)

(* --- Resilience: retry/backoff protocol ----------------------------------- *)

module Fault = Voltron_fault.Fault

let drain_service n ~upto =
  for now = 0 to upto do
    Net.service n ~now
  done

let test_defer_then_service () =
  (* Overflow path: a 5th message on a full channel is deferred (entry NACK)
     and retransmitted by [service] on the backoff schedule — it arrives
     after the queued four, in order, with the NACK and retry counted. *)
  let n = mk_net mesh2 in
  for i = 1 to 4 do
    ignore (Net.send n ~now:0 ~src:0 ~dst:1 (Net.Value i))
  done;
  (match Net.send n ~now:0 ~src:0 ~dst:1 (Net.Value 5) with
  | Error Net.Channel_full -> Net.defer n ~now:0 ~src:0 ~dst:1 (Net.Value 5)
  | Error (Net.Bad_destination _) | Ok () ->
    Alcotest.fail "expected channel-full overflow");
  drain_service n ~upto:100;
  let received = List.init 5 (fun _ -> Net.recv n ~now:100 ~core:1 ~sender:0) in
  Alcotest.(check (list (option int)))
    "deferred message arrives last, order kept"
    [ Some 1; Some 2; Some 3; Some 4; Some 5 ]
    received;
  let s = Net.stats n in
  Alcotest.(check int) "one overflow nack" 1 s.Net.nacks;
  Alcotest.(check bool) "retransmission happened" true (s.Net.retries >= 1)

let test_drop_retry_bounded () =
  (* drop_rate 1.0 with max_retries 2: the message is lost exactly twice,
     then the third transmission is forced clean — bounded recovery even at
     rate 1.0. *)
  let cfg =
    { Fault.disabled with Fault.drop_rate = 1.0; retry_timeout = 2; max_retries = 2 }
  in
  let f = Fault.create cfg in
  let n = Net.create ~faults:f mesh2 ~receive_capacity:4 in
  (match Net.send n ~now:0 ~src:0 ~dst:1 (Net.Value 7) with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Net.send_error_to_string e));
  Alcotest.(check (option int)) "nothing deliverable while lost" None
    (Net.recv n ~now:1 ~core:1 ~sender:0);
  drain_service n ~upto:30;
  Alcotest.(check (option int)) "delivered after retries" (Some 7)
    (Net.recv n ~now:30 ~core:1 ~sender:0);
  Alcotest.(check int) "dropped twice" 2 (Fault.counters f).Fault.msgs_dropped;
  Alcotest.(check int) "two retransmissions" 2 (Net.stats n).Net.retries

let test_corrupt_nack_retry () =
  (* corrupt_rate 1.0 with max_retries 1: parity fails on arrival, the NACK
     triggers one backoff'd resend, and the clean retry carries the
     original payload. *)
  let cfg =
    { Fault.disabled with Fault.corrupt_rate = 1.0; retry_timeout = 2; max_retries = 1 }
  in
  let f = Fault.create cfg in
  let n = Net.create ~faults:f mesh2 ~receive_capacity:4 in
  ignore (Net.send n ~now:0 ~src:0 ~dst:1 (Net.Value 42));
  drain_service n ~upto:30;
  Alcotest.(check (option int)) "payload intact after resend" (Some 42)
    (Net.recv n ~now:30 ~core:1 ~sender:0);
  Alcotest.(check int) "corrupted once" 1 (Fault.counters f).Fault.msgs_corrupted;
  let s = Net.stats n in
  Alcotest.(check int) "parity nack counted" 1 s.Net.nacks;
  Alcotest.(check int) "one retransmission" 1 s.Net.retries

let test_head_of_line_order () =
  (* A retried message blocks younger traffic on its channel: the younger
     clean message must not overtake, or queue-mode FIFO semantics break. *)
  let n = mk_net mesh2 in
  Net.defer n ~now:0 ~src:0 ~dst:1 (Net.Value 1);
  (match Net.send n ~now:0 ~src:0 ~dst:1 (Net.Value 2) with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Net.send_error_to_string e));
  Alcotest.(check bool) "younger message held behind the deferred one" false
    (Net.recv_ready n ~now:10 ~core:1 ~sender:0);
  drain_service n ~upto:60;
  Alcotest.(check (option int)) "older delivered first" (Some 1)
    (Net.recv n ~now:60 ~core:1 ~sender:0);
  Alcotest.(check (option int)) "then the younger" (Some 2)
    (Net.recv n ~now:60 ~core:1 ~sender:0)

(* Property: messages between a random pair sequence are delivered exactly
   once and in per-pair FIFO order. *)
let test_exactly_once =
  QCheck.Test.make ~name:"exactly-once, per-pair fifo delivery" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_bound 40) (pair (int_bound 3) (int_bound 3)))
    (fun pairs ->
      let n = Net.create mesh4 ~receive_capacity:1000 in
      let sent = Hashtbl.create 16 in
      List.iteri
        (fun i (src, dst) ->
          if src <> dst then begin
            (match Net.send n ~now:i ~src ~dst (Net.Value i) with
            | Ok () -> ()
            | Error _ -> ());
            Hashtbl.replace sent (src, dst)
              (i :: Option.value ~default:[] (Hashtbl.find_opt sent (src, dst)))
          end)
        pairs;
      let now = List.length pairs + 10 in
      Hashtbl.fold
        (fun (src, dst) payloads acc ->
          acc
          &&
          let expected = List.rev payloads in
          let received =
            List.map (fun _ -> Net.recv n ~now ~core:dst ~sender:src) expected
          in
          received = List.map (fun v -> Some v) expected
          && Net.recv n ~now ~core:dst ~sender:src = None)
        sent true)

(* --- Model-based check of the queue-mode channels ---------------------------

   [Ref] is a reference model of queue-mode semantics kept deliberately
   naive: one unsorted list of every message in flight, newest first, and
   each rule written as a scan of that list. The property drives it and the
   real network through the same random interleaving of sends, deferrals,
   retry service, receives, START takes, queries and test backdoors —
   over a fault injector at high drop and corrupt rates, each side with its
   own injector seeded alike, so the fault draws only match if the calls
   are made in the same order — and compares every result, the stats, the
   fault counters and the monitor event stream. *)

module Ref = struct
  type condition = Clean | Lost | Corrupt

  type msg = {
    src : int;
    dst : int;
    mutable payload : Net.payload;
    sent : int;
    mutable ready : int;
    seq : int;
    mutable cond : condition;
    mutable attempt : int;
    mutable retry_at : int;
  }

  type t = {
    mesh : Mesh.t;
    hop_cost : int;
    capacity : int;
    faults : Fault.t option;
    mutable msgs : msg list;  (** newest first *)
    mutable next_seq : int;
    stats : Net.stats;
    mutable events : Net.event list;  (** newest first *)
  }

  let create ?faults ~hop_cost mesh ~capacity =
    {
      mesh;
      hop_cost;
      capacity;
      faults;
      msgs = [];
      next_seq = 0;
      stats =
        { Net.msgs_sent = 0; total_latency = 0; max_occupancy = 0; retries = 0; nacks = 0 };
      events = [];
    }

  let is_start m = match m.payload with Net.Start _ -> true | Net.Value _ -> false
  let lat t m = Mesh.hops t.mesh m.src m.dst * t.hop_cost

  (* Rules as the list encodes them: a message is deliverable when it is
     Clean, has arrived, and no older message shares its channel. *)
  let head t m =
    not
      (List.exists
         (fun m' ->
           m'.src = m.src && m'.dst = m.dst && is_start m' = is_start m
           && m'.seq < m.seq)
         t.msgs)

  let deliverable t ~now m = m.cond = Clean && m.ready <= now && head t m

  let pending t ~src ~dst =
    List.length (List.filter (fun m -> m.src = src && m.dst = dst) t.msgs)

  let transmit t ~now m =
    m.ready <- now + 1 + lat t m;
    m.cond <- Clean;
    match t.faults with
    | None -> ()
    | Some f ->
      if m.attempt <= (Fault.config f).Fault.max_retries then
        if Fault.roll_drop f then begin
          m.cond <- Lost;
          m.retry_at <- now + Fault.backoff f ~attempt:m.attempt
        end
        else if Fault.roll_corrupt f then begin
          m.cond <- Corrupt;
          m.retry_at <- m.ready + Fault.backoff f ~attempt:m.attempt
        end

  let enqueue t ~now ~src ~dst payload =
    let m =
      {
        src;
        dst;
        payload;
        sent = now;
        ready = 0;
        seq = t.next_seq;
        cond = Clean;
        attempt = 1;
        retry_at = 0;
      }
    in
    m.ready <- now + 1 + lat t m;
    t.next_seq <- t.next_seq + 1;
    t.msgs <- m :: t.msgs;
    let s = t.stats in
    s.Net.msgs_sent <- s.Net.msgs_sent + 1;
    s.Net.total_latency <- s.Net.total_latency + 2 + lat t m;
    s.Net.max_occupancy <- max s.Net.max_occupancy (List.length t.msgs);
    t.events <-
      Net.Ev_send { ev_src = src; ev_dst = dst; ev_seq = m.seq; ev_payload = payload }
      :: t.events;
    m

  let send t ~now ~src ~dst payload =
    if dst < 0 || dst >= Mesh.n_cores t.mesh then Error (Net.Bad_destination dst)
    else if pending t ~src ~dst >= t.capacity then Error Net.Channel_full
    else begin
      transmit t ~now (enqueue t ~now ~src ~dst payload);
      Ok ()
    end

  let defer t ~now ~src ~dst payload =
    let m = enqueue t ~now ~src ~dst payload in
    let cfg = match t.faults with Some f -> Fault.config f | None -> Fault.disabled in
    m.cond <- Lost;
    m.retry_at <- now + Fault.backoff_of cfg ~attempt:m.attempt;
    t.stats.Net.nacks <- t.stats.Net.nacks + 1

  (* Newest first: the order the list keeps. *)
  let service t ~now =
    List.iter
      (fun m ->
        if m.cond <> Clean && m.retry_at <= now then begin
          t.stats.Net.retries <- t.stats.Net.retries + 1;
          if m.cond = Corrupt then t.stats.Net.nacks <- t.stats.Net.nacks + 1;
          m.attempt <- m.attempt + 1;
          transmit t ~now m
        end)
      t.msgs

  let oldest p msgs =
    List.fold_left
      (fun best m ->
        if not (p m) then best
        else match best with Some b when b.seq < m.seq -> best | _ -> Some m)
      None msgs

  let remove t m = t.msgs <- List.filter (fun m' -> m' != m) t.msgs

  (* [src = None]: from any sender (START consumption). *)
  let take t ~now ~dst ~src ~start =
    match
      oldest
        (fun m ->
          m.dst = dst
          && (match src with None -> true | Some s -> m.src = s)
          && is_start m = start && deliverable t ~now m)
        t.msgs
    with
    | None -> None
    | Some m ->
      remove t m;
      t.events <-
        Net.Ev_deliver
          {
            ev_src = m.src;
            ev_dst = m.dst;
            ev_seq = m.seq;
            ev_payload = m.payload;
            ev_sent = m.sent;
          }
        :: t.events;
      Some m.payload

  let recv t ~now ~core ~sender =
    match take t ~now ~dst:core ~src:(Some sender) ~start:false with
    | Some (Net.Value v) -> Some v
    | Some (Net.Start _) | None -> None

  let take_start t ~now ~core =
    match take t ~now ~dst:core ~src:None ~start:true with
    | Some (Net.Start a) -> Some a
    | Some (Net.Value _) | None -> None

  let recv_ready t ~now ~core ~sender =
    List.exists
      (fun m -> m.dst = core && m.src = sender && (not (is_start m)) && deliverable t ~now m)
      t.msgs

  let min_ready p t =
    List.fold_left (fun acc m -> if p m then min acc m.ready else acc) max_int t.msgs

  let next_value_ready t ~core ~sender =
    min_ready (fun m -> m.dst = core && m.src = sender && not (is_start m)) t

  let next_start_ready t ~core = min_ready (fun m -> m.dst = core && is_start m) t

  let summary t =
    List.sort (fun a b -> compare a.seq b.seq) t.msgs
    |> List.map (fun m ->
           let payload =
             match m.payload with
             | Net.Value v -> Printf.sprintf "value %d" v
             | Net.Start a -> Printf.sprintf "start @%d" a
           in
           let state =
             match m.cond with
             | Clean -> Printf.sprintf "deliverable @%d" m.ready
             | Lost -> Printf.sprintf "lost, retry @%d (attempt %d)" m.retry_at m.attempt
             | Corrupt ->
               Printf.sprintf "corrupt, retry @%d (attempt %d)" m.retry_at m.attempt
           in
           (m.src, m.dst, payload ^ ", " ^ state))

  let test_drop t =
    match oldest (fun _ -> true) t.msgs with
    | None -> false
    | Some m ->
      remove t m;
      true

  let test_tamper t =
    match oldest (fun m -> not (is_start m)) t.msgs with
    | Some ({ payload = Net.Value v; _ } as m) ->
      m.payload <- Net.Value (v lxor 1);
      true
    | Some { payload = Net.Start _; _ } | None -> false
end

type model_op =
  | Op_send of int * int * Net.payload
  | Op_defer of int * int * Net.payload
  | Op_service
  | Op_recv of int * int
  | Op_take_start of int
  | Op_query of int * int
  | Op_drop
  | Op_tamper

type model_case = {
  mc_cores : int;
  mc_capacity : int;
  mc_hop_cost : int;
  mc_faults : Fault.config option;
  mc_ops : (int * model_op) list;  (** (cycles to advance first, op) *)
}

let gen_model_case =
  let open QCheck.Gen in
  int_range 2 16 >>= fun n ->
  let core = int_bound (n - 1) in
  (* Mostly real cores; now and then an id off the mesh, which must read as
     an empty channel. *)
  let any_id = frequency [ (12, core); (1, return (-1)); (1, return n) ] in
  let payload =
    frequency
      [ (4, map (fun v -> Net.Value v) (int_bound 999));
        (1, map (fun a -> Net.Start a) (int_bound 99)) ]
  in
  let op =
    frequency
      [
        (6, map3 (fun s d p -> Op_send (s, d, p)) core any_id payload);
        (1, map3 (fun s d p -> Op_defer (s, d, p)) core core payload);
        (4, return Op_service);
        (5, map2 (fun c s -> Op_recv (c, s)) core any_id);
        (2, map (fun c -> Op_take_start c) core);
        (3, map2 (fun c s -> Op_query (c, s)) core any_id);
        (1, oneofl [ Op_drop; Op_tamper ]);
      ]
  in
  let faults =
    frequency
      [
        (1, return None);
        ( 3,
          map2
            (fun seed (drop, corrupt) ->
              Some
                {
                  Fault.disabled with
                  Fault.fault_seed = seed;
                  drop_rate = drop;
                  corrupt_rate = corrupt;
                  retry_timeout = 2;
                  backoff_cap = 4;
                  max_retries = 3;
                })
            (int_bound 10_000)
            (oneofl [ (0.3, 0.3); (0.5, 0.2); (0.1, 0.6) ]) );
      ]
  in
  map
    (fun ((capacity, hop_cost), faults, ops) ->
      {
        mc_cores = n;
        mc_capacity = capacity;
        mc_hop_cost = hop_cost;
        mc_faults = faults;
        mc_ops = ops;
      })
    (triple (pair (int_range 1 4) (int_range 0 2)) faults
       (list_size (int_range 1 300) (pair (int_bound 3) op)))

let print_model_case c =
  Printf.sprintf "%d cores, capacity %d, hop cost %d, %s, %d ops" c.mc_cores
    c.mc_capacity c.mc_hop_cost
    (match c.mc_faults with
    | None -> "no faults"
    | Some f ->
      Printf.sprintf "faults seed %d drop %.1f corrupt %.1f" f.Fault.fault_seed
        f.Fault.drop_rate f.Fault.corrupt_rate)
    (List.length c.mc_ops)

let test_model_equivalence =
  QCheck.Test.make ~name:"per-channel queues match the list model" ~count:300
    (QCheck.make ~print:print_model_case gen_model_case)
    (fun c ->
      let mesh = Mesh.create c.mc_cores in
      let real_f = Option.map Fault.create c.mc_faults
      and ref_f = Option.map Fault.create c.mc_faults in
      let n =
        Net.create ?faults:real_f ~hop_cost:c.mc_hop_cost mesh
          ~receive_capacity:c.mc_capacity
      in
      let r = Ref.create ?faults:ref_f ~hop_cost:c.mc_hop_cost mesh ~capacity:c.mc_capacity in
      let events = ref [] in
      Net.set_monitor n (fun ev -> events := ev :: !events);
      let now = ref 0 in
      let expect step what same =
        if not same then QCheck.Test.fail_reportf "step %d: %s differs" step what
      in
      List.iteri
        (fun step (dt, op) ->
          now := !now + dt;
          let now = !now in
          (match op with
          | Op_send (src, dst, p) ->
            expect step "send" (Net.send n ~now ~src ~dst p = Ref.send r ~now ~src ~dst p)
          | Op_defer (src, dst, p) ->
            Net.defer n ~now ~src ~dst p;
            Ref.defer r ~now ~src ~dst p
          | Op_service ->
            Net.service n ~now;
            Ref.service r ~now
          | Op_recv (core, sender) ->
            expect step "recv"
              (Net.recv n ~now ~core ~sender = Ref.recv r ~now ~core ~sender)
          | Op_take_start core ->
            expect step "take_start"
              (Net.take_start n ~now ~core = Ref.take_start r ~now ~core)
          | Op_query (core, sender) ->
            expect step "recv_ready"
              (Net.recv_ready n ~now ~core ~sender = Ref.recv_ready r ~now ~core ~sender);
            expect step "pending"
              (Net.pending n ~src:sender ~dst:core = Ref.pending r ~src:sender ~dst:core);
            expect step "next_value_ready"
              (Net.next_value_ready n ~core ~sender = Ref.next_value_ready r ~core ~sender);
            expect step "next_start_ready"
              (Net.next_start_ready n ~core = Ref.next_start_ready r ~core)
          | Op_drop -> expect step "test_drop" (Net.test_drop n = Ref.test_drop r)
          | Op_tamper ->
            expect step "test_tamper_payload" (Net.test_tamper_payload n = Ref.test_tamper r));
          expect step "in_flight_count"
            (Net.in_flight_count n = List.length r.Ref.msgs);
          expect step "in_flight_summary" (Net.in_flight_summary n = Ref.summary r);
          expect step "stats" (Net.stats n = r.Ref.stats);
          expect step "events" (!events = r.Ref.events);
          expect step "fault counters"
            (Option.map Fault.counters real_f = Option.map Fault.counters ref_f))
        c.mc_ops;
      true)

let () =
  Alcotest.run "net"
    [
      ( "mesh",
        [
          Alcotest.test_case "geometry" `Quick test_mesh_geometry;
          Alcotest.test_case "neighbours" `Quick test_mesh_neighbours;
          Alcotest.test_case "routing" `Quick test_mesh_route;
        ] );
      ( "direct",
        [
          Alcotest.test_case "put/get" `Quick test_direct_put_get;
          Alcotest.test_case "off-mesh put" `Quick test_direct_put_off_mesh;
          Alcotest.test_case "stale get" `Quick test_direct_stale_get_detected;
          Alcotest.test_case "bcast timing" `Quick test_bcast_arrival_times;
        ] );
      ( "queue",
        [
          Alcotest.test_case "latency" `Quick test_queue_latency;
          Alcotest.test_case "sender matching" `Quick test_queue_sender_matching;
          Alcotest.test_case "fifo" `Quick test_queue_fifo_per_pair;
          Alcotest.test_case "capacity" `Quick test_queue_capacity;
          Alcotest.test_case "spawn" `Quick test_spawn_start_message;
          Alcotest.test_case "idle" `Quick test_idle;
          QCheck_alcotest.to_alcotest test_exactly_once;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "defer + service" `Quick test_defer_then_service;
          Alcotest.test_case "bounded drop retry" `Quick test_drop_retry_bounded;
          Alcotest.test_case "corrupt nack retry" `Quick test_corrupt_nack_retry;
          Alcotest.test_case "head-of-line order" `Quick test_head_of_line_order;
        ] );
      ("model", [ QCheck_alcotest.to_alcotest test_model_equivalence ]);
    ]
