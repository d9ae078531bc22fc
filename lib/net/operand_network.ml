module Fault = Voltron_fault.Fault

type payload = Value of int | Start of int

type latch = { mutable filled : bool; mutable value : int; mutable time : int }

(* In-flight delivery state. [Clean] messages arrive at [ready_time];
   [Lost]/[Corrupt] ones are injected faults (or an overflow NACK) that the
   sender retransmits at [retry_at] with exponential backoff. *)
type condition = Clean | Lost | Corrupt

type message = {
  msg_src : int;
  msg_dst : int;
  mutable msg_payload : payload;  (** mutable only for the tamper backdoor *)
  msg_sent : int;  (** enqueue cycle — the tail of a send→recv blame edge *)
  mutable ready_time : int;  (** cycle at which the receive queue can deliver *)
  seq : int;  (** global enqueue order: FIFO per (src, dst) pair *)
  mutable condition : condition;
  mutable attempt : int;  (** 1-based transmission count *)
  mutable retry_at : int;  (** next retransmission cycle when not [Clean] *)
}

type bcast_slot = { mutable b_value : int; mutable b_time : int; mutable b_src : int }

type stats = {
  mutable msgs_sent : int;
  mutable total_latency : int;
  mutable max_occupancy : int;
  mutable retries : int;  (** retransmissions of lost/corrupted/NACKed msgs *)
  mutable nacks : int;  (** parity NACKs + receive-queue overflow NACKs *)
}

(* Runtime sanitizer events: the network announces every enqueue, delivery
   and latch fill/drain so an external model can mirror the protocol and
   cross-check conservation, FIFO order and payload integrity. *)
type event =
  | Ev_send of { ev_src : int; ev_dst : int; ev_seq : int; ev_payload : payload }
  | Ev_deliver of {
      ev_src : int;
      ev_dst : int;
      ev_seq : int;
      ev_payload : payload;
      ev_sent : int;  (** the delivered message's enqueue cycle *)
    }
  | Ev_put of { ev_src : int; ev_dst : int; ev_dir : Voltron_isa.Inst.dir }
      (** successful latch fill; [ev_dir] is the PUT direction at the source *)
  | Ev_get of { ev_core : int; ev_dir : Voltron_isa.Inst.dir }
      (** successful latch drain at the consuming core *)

type t = {
  net_mesh : Mesh.t;
  n : int;
  capacity : int;
  hop_cycles : int array;
      (** [hop_cycles.(src * n + dst)]: hops times the per-hop cost, built
          once at [create] *)
  (* latches.(core).(dir_index): value arriving at [core] from direction. *)
  latches : latch array array;
  mutable broadcast : bcast_slot option;
  consumed_bcast : bool array;  (** per-core: has this core taken the current bcast *)
  values : message Queue.t array;
      (** [values.(dst * n + src)]: the Value channel, in seq order *)
  starts : message Queue.t array;
      (** [starts.(dst * n + src)]: the Start channel, in seq order *)
  starts_to : int array;  (** per destination: Start messages in flight *)
  mutable in_flight : int;  (** undelivered messages, every channel *)
  mutable dirty : message list;
      (** every Lost or Corrupt message, in descending seq order *)
  mutable next_seq : int;
  net_stats : stats;
  faults : Fault.t option;
  mutable monitor : (event -> unit) option;
}

type put_error = Off_mesh | Latch_full of int

type send_error = Bad_destination of int | Channel_full

type error =
  | Put_failed of { src_core : int; error : put_error }
  | Send_failed of send_error

(* Single rendering point for typed network errors: the machine's watchdog
   diagnosis and the static checker's diagnostics both go through here, so
   an error reads the same whether it was predicted or hit at runtime. *)
let pp_error ppf = function
  | Put_failed { src_core; error = Off_mesh } ->
    Format.fprintf ppf "put: core %d has no neighbour in that direction" src_core
  | Put_failed { error = Latch_full dst; _ } ->
    Format.fprintf ppf "put: latch into core %d still full (unconsumed PUT)" dst
  | Send_failed (Bad_destination dst) ->
    Format.fprintf ppf "send: bad destination core %d" dst
  | Send_failed Channel_full -> Format.pp_print_string ppf "send: channel full"

let error_to_string e = Format.asprintf "%a" pp_error e

let put_error_to_string ~src_core error =
  error_to_string (Put_failed { src_core; error })

let send_error_to_string e = error_to_string (Send_failed e)

let dir_index (d : Voltron_isa.Inst.dir) =
  match d with
  | Voltron_isa.Inst.North -> 0
  | Voltron_isa.Inst.South -> 1
  | Voltron_isa.Inst.East -> 2
  | Voltron_isa.Inst.West -> 3

let create ?faults ?(hop_cost = 1) net_mesh ~receive_capacity =
  if hop_cost < 0 then invalid_arg "Operand_network.create: negative hop_cost";
  let n = Mesh.n_cores net_mesh in
  {
    net_mesh;
    n;
    capacity = receive_capacity;
    hop_cycles =
      Array.init (n * n) (fun i -> Mesh.hops net_mesh (i / n) (i mod n) * hop_cost);
    latches =
      Array.init n (fun _ ->
          Array.init 4 (fun _ -> { filled = false; value = 0; time = 0 }));
    broadcast = None;
    consumed_bcast = Array.make n true;
    values = Array.init (n * n) (fun _ -> Queue.create ());
    starts = Array.init (n * n) (fun _ -> Queue.create ());
    starts_to = Array.make n 0;
    in_flight = 0;
    dirty = [];
    next_seq = 0;
    net_stats =
      { msgs_sent = 0; total_latency = 0; max_occupancy = 0; retries = 0; nacks = 0 };
    faults;
    monitor = None;
  }

let mesh t = t.net_mesh

let stats t = t.net_stats

let set_monitor t f = t.monitor <- Some f

let emit t ev = match t.monitor with None -> () | Some f -> f ev

let in_flight_count t = t.in_flight

(* --- Direct mode --------------------------------------------------------- *)

let put t ~now ~src_core dir value =
  match Mesh.neighbour t.net_mesh src_core dir with
  | None -> Error Off_mesh
  | Some dst ->
    let latch = t.latches.(dst).(dir_index (Voltron_isa.Inst.opposite dir)) in
    if latch.filled then Error (Latch_full dst)
    else begin
      latch.filled <- true;
      latch.value <- value;
      latch.time <- now;
      emit t (Ev_put { ev_src = src_core; ev_dst = dst; ev_dir = dir });
      Ok ()
    end

let get t ~now ~core dir =
  let latch = t.latches.(core).(dir_index dir) in
  (* With the lock-step stall bus, a paired PUT/GET always executes in the
     same cycle; a value put at another cycle is not this GET's. *)
  if (not latch.filled) || latch.time <> now then None
  else begin
    latch.filled <- false;
    emit t (Ev_get { ev_core = core; ev_dir = dir });
    Some latch.value
  end

let bcast t ~now ~src_core value =
  t.broadcast <- Some { b_value = value; b_time = now; b_src = src_core };
  Array.fill t.consumed_bcast 0 (Array.length t.consumed_bcast) false;
  t.consumed_bcast.(src_core) <- true

let getb t ~now ~core =
  match t.broadcast with
  | None -> None
  | Some slot ->
    if t.consumed_bcast.(core) then None
    else begin
      let arrival = slot.b_time + t.hop_cycles.((slot.b_src * t.n) + core) in
      if now < arrival then None
      else begin
        t.consumed_bcast.(core) <- true;
        Some slot.b_value
      end
    end

(* --- Queue mode ---------------------------------------------------------- *)

(* The receive CAM is one FIFO per (src, dst, payload class) channel.
   Retransmission must not reorder a channel: RECV consumes by sender id
   only, so FIFO within a channel is program semantics, not just timing.
   Two payload classes share a (src, dst) pair without ordering constraints
   (a Start is consumed only by a sleeping core), so the unit of ordering is
   (src, dst, class). A message enters its channel at enqueue, in seq order,
   and leaves only from the head, so a channel's head is its oldest message
   and the oldest message in flight is the head of its channel.

   The per-cycle queries (the machine's blocker and wake probes run them
   for every blocked or sleeping core) touch one channel, or one
   destination's [n] channels, and are toplevel functions threading their
   context as arguments: a capturing closure per call would put the
   network back on the simulator's per-cycle allocation path. *)

(* Index of the [src]->[dst] channel in [values]/[starts], or -1 when either
   end is not a core (such a channel is always empty). *)
let chan t ~src ~dst =
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then -1 else (dst * t.n) + src

let pending t ~src ~dst =
  let c = chan t ~src ~dst in
  if c < 0 then 0 else Queue.length t.values.(c) + Queue.length t.starts.(c)

(* A message is deliverable when it is Clean, has arrived, and heads its
   channel — a retried message blocks younger ones behind it. In a
   fault-free run every message is Clean and same-channel hop counts are
   equal, so ready order equals seq order and the head test never blocks a
   ready message: delivery timing is bit-identical to a network without the
   retry machinery. *)
let head_deliverable q ~now =
  (not (Queue.is_empty q))
  &&
  let m = Queue.peek q in
  (match m.condition with Clean -> true | Lost | Corrupt -> false)
  && m.ready_time <= now

(* (Re)launch [m] at [now], rolling fault injection on each transmission.
   After [max_retries] retransmissions the delivery is forced clean, so a
   message occupies its channel for a bounded time even at rate 1.0. *)
let transmit t ~now m =
  m.ready_time <- now + 1 + t.hop_cycles.((m.msg_src * t.n) + m.msg_dst);
  m.condition <- Clean;
  match t.faults with
  | None -> ()
  | Some f ->
    let cfg = Fault.config f in
    if m.attempt <= cfg.Fault.max_retries then
      if Fault.roll_drop f then begin
        (* Sender-side ack timeout: no arrival, retry after backoff. *)
        m.condition <- Lost;
        m.retry_at <- now + Fault.backoff f ~attempt:m.attempt
      end
      else if Fault.roll_corrupt f then begin
        (* Parity fails on arrival; the NACK triggers a backoff'd resend. *)
        m.condition <- Corrupt;
        m.retry_at <- m.ready_time + Fault.backoff f ~attempt:m.attempt
      end

(* [m], just enqueued (so the youngest message in flight), left the wire
   Lost or Corrupt: prepending keeps [dirty] in descending seq order. *)
let add_dirty t m = t.dirty <- m :: t.dirty

let enqueue t ~now ~src ~dst payload =
  let lat = t.hop_cycles.((src * t.n) + dst) in
  let msg =
    {
      msg_src = src;
      msg_dst = dst;
      msg_payload = payload;
      msg_sent = now;
      ready_time = now + 1 + lat;
      seq = t.next_seq;
      condition = Clean;
      attempt = 1;
      retry_at = 0;
    }
  in
  t.next_seq <- t.next_seq + 1;
  let c = (dst * t.n) + src in
  (match payload with
  | Value _ -> Queue.push msg t.values.(c)
  | Start _ ->
    Queue.push msg t.starts.(c);
    t.starts_to.(dst) <- t.starts_to.(dst) + 1);
  t.in_flight <- t.in_flight + 1;
  let s = t.net_stats in
  s.msgs_sent <- s.msgs_sent + 1;
  s.total_latency <- s.total_latency + 2 + lat;
  if t.in_flight > s.max_occupancy then s.max_occupancy <- t.in_flight;
  emit t
    (Ev_send { ev_src = src; ev_dst = dst; ev_seq = msg.seq; ev_payload = payload });
  msg

let send t ~now ~src ~dst payload =
  if dst < 0 || dst >= t.n then Error (Bad_destination dst)
  else if pending t ~src ~dst >= t.capacity then Error Channel_full
  else begin
    let msg = enqueue t ~now ~src ~dst payload in
    transmit t ~now msg;
    (match msg.condition with Clean -> () | Lost | Corrupt -> add_dirty t msg);
    Ok ()
  end

let defer t ~now ~src ~dst payload =
  if dst < 0 || dst >= t.n then invalid_arg "Net.defer";
  let msg = enqueue t ~now ~src ~dst payload in
  (* Receive-queue overflow: the entry NACK parks the message at the sender,
     which retries on the same backoff schedule as a lost message. *)
  let cfg =
    match t.faults with Some f -> Fault.config f | None -> Fault.disabled
  in
  msg.condition <- Lost;
  msg.retry_at <- now + Fault.backoff_of cfg ~attempt:msg.attempt;
  add_dirty t msg;
  t.net_stats.nacks <- t.net_stats.nacks + 1

(* Retransmit every due message of [l] in list order — descending seq, the
   order fault-injection draws are made in — and return [l] without the
   messages that went out clean. *)
let rec service_dirty t now l =
  match l with
  | [] -> []
  | m :: rest -> (
    if m.retry_at <= now then begin
      let s = t.net_stats in
      s.retries <- s.retries + 1;
      (match m.condition with Corrupt -> s.nacks <- s.nacks + 1 | Clean | Lost -> ());
      m.attempt <- m.attempt + 1;
      transmit t ~now m
    end;
    let rest' = service_dirty t now rest in
    match m.condition with
    | Clean -> rest'
    | Lost | Corrupt -> if rest' == rest then l else m :: rest')

let service t ~now =
  match t.dirty with [] -> () | l -> t.dirty <- service_dirty t now l

(* Deliver the head of [q] (the caller checked it is deliverable). *)
let deliver t q =
  let m = Queue.pop q in
  t.in_flight <- t.in_flight - 1;
  emit t
    (Ev_deliver
       {
         ev_src = m.msg_src;
         ev_dst = m.msg_dst;
         ev_seq = m.seq;
         ev_payload = m.msg_payload;
         ev_sent = m.msg_sent;
       });
  m

let recv_ready t ~now ~core ~sender =
  let c = chan t ~src:sender ~dst:core in
  c >= 0 && head_deliverable t.values.(c) ~now

let recv t ~now ~core ~sender =
  if not (recv_ready t ~now ~core ~sender) then None
  else
    match (deliver t t.values.((core * t.n) + sender)).msg_payload with
    | Value v -> Some v
    | Start _ -> assert false

(* Among the Start channels [base .. base + n - 1] of one destination, the
   channel whose deliverable head has the smallest seq; -1 when none. *)
let rec oldest_ready_start t now base src best =
  if src >= t.n then best
  else
    let q = t.starts.(base + src) in
    let best =
      if
        head_deliverable q ~now
        && (best < 0 || (Queue.peek q).seq < (Queue.peek t.starts.(best)).seq)
      then base + src
      else best
    in
    oldest_ready_start t now base (src + 1) best

let take_start t ~now ~core =
  if t.starts_to.(core) = 0 then None
  else
    let c = oldest_ready_start t now (core * t.n) 0 (-1) in
    if c < 0 then None
    else begin
      t.starts_to.(core) <- t.starts_to.(core) - 1;
      match (deliver t t.starts.(c)).msg_payload with
      | Start addr -> Some addr
      | Value _ -> assert false
    end

let getb_ready t ~now ~core =
  match t.broadcast with
  | None -> false
  | Some slot ->
    (not t.consumed_bcast.(core))
    && now >= slot.b_time + t.hop_cycles.((slot.b_src * t.n) + core)

(* --- Wake queries (stall fast-forward) ------------------------------------ *)

(* Earliest cycle at which the matching receive condition can turn true,
   assuming the machine issues nothing in between (so every channel is
   frozen): the min [ready_time] over the channel's messages. Only exact on
   a fault-free network, where every message is [Clean] and same-channel
   hop counts are equal, so that minimum is the head's delivery time.
   [max_int] when nothing matching is in flight — the wait is event-driven
   and cannot clear while no core issues. *)
let earlier_ready acc m = if m.ready_time < acc then m.ready_time else acc

let next_value_ready t ~core ~sender =
  let c = chan t ~src:sender ~dst:core in
  if c < 0 then max_int else Queue.fold earlier_ready max_int t.values.(c)

let rec min_start_ready t base src acc =
  if src >= t.n then acc
  else
    min_start_ready t base (src + 1) (Queue.fold earlier_ready acc t.starts.(base + src))

let next_start_ready t ~core =
  if t.starts_to.(core) = 0 then max_int
  else min_start_ready t (core * t.n) 0 max_int

let getb_wake t ~core =
  match t.broadcast with
  | None -> max_int
  | Some slot ->
    if t.consumed_bcast.(core) then max_int
    else slot.b_time + t.hop_cycles.((slot.b_src * t.n) + core)

(* --- Snapshots and test backdoors ----------------------------------------- *)

let in_flight_summary t =
  let msgs = ref [] in
  let collect q = Queue.iter (fun m -> msgs := m :: !msgs) q in
  Array.iter collect t.values;
  Array.iter collect t.starts;
  List.sort (fun a b -> Int.compare a.seq b.seq) !msgs
  |> List.map (fun m ->
         let payload =
           match m.msg_payload with
           | Value v -> Printf.sprintf "value %d" v
           | Start a -> Printf.sprintf "start @%d" a
         in
         let state =
           match m.condition with
           | Clean -> Printf.sprintf "deliverable @%d" m.ready_time
           | Lost ->
             Printf.sprintf "lost, retry @%d (attempt %d)" m.retry_at m.attempt
           | Corrupt ->
             Printf.sprintf "corrupt, retry @%d (attempt %d)" m.retry_at
               m.attempt
         in
         (m.msg_src, m.msg_dst, payload ^ ", " ^ state))

let idle t =
  t.in_flight = 0
  && Array.for_all (fun row -> Array.for_all (fun l -> not l.filled) row) t.latches

(* The channel in [queues] whose head is the oldest message there, or
   [None] when they are all empty. *)
let oldest_head queues =
  let best = ref None in
  Array.iter
    (fun q ->
      if not (Queue.is_empty q) then
        match !best with
        | Some b when (Queue.peek b).seq < (Queue.peek q).seq -> ()
        | Some _ | None -> best := Some q)
    queues;
  !best

let test_tamper_payload t =
  match oldest_head t.values with
  | None -> false
  | Some q ->
    let m = Queue.peek q in
    (match m.msg_payload with
    | Value v -> m.msg_payload <- Value (v lxor 1)
    | Start _ -> assert false);
    true

let test_drop t =
  let q =
    match (oldest_head t.values, oldest_head t.starts) with
    | Some v, Some s -> Some (if (Queue.peek v).seq < (Queue.peek s).seq then v else s)
    | (Some _ as q), None | None, (Some _ as q) -> q
    | None, None -> None
  in
  match q with
  | None -> false
  | Some q ->
    let m = Queue.pop q in
    t.in_flight <- t.in_flight - 1;
    (match m.msg_payload with
    | Start _ -> t.starts_to.(m.msg_dst) <- t.starts_to.(m.msg_dst) - 1
    | Value _ -> ());
    t.dirty <- List.filter (fun d -> d != m) t.dirty;
    true
