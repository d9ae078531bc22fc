module Inst = Voltron_isa.Inst
module Memory = Voltron_mem.Memory
module Cache = Voltron_mem.Cache
module Coherence = Voltron_mem.Coherence
module Tm = Voltron_mem.Tm
module Net = Voltron_net.Operand_network
module Machine = Voltron_machine.Machine
module Json = Voltron_obs.Json

type policy = Report | Abort | Recover

let policy_name = function
  | Report -> "report"
  | Abort -> "abort"
  | Recover -> "recover"

let policy_of_string = function
  | "report" -> Ok Report
  | "abort" -> Ok Abort
  | "recover" -> Ok Recover
  | s ->
    Error
      (Printf.sprintf "unknown sanitizer policy %S (report, abort, recover)" s)

type kind =
  | Coherence_states of { line : int; states : (int * Cache.state) list }
  | Coherence_sweep of { msg : string }
  | Read_divergence of { expected : int; got : int }
  | Aborted_store_leaked of { expected : int; got : int }
  | Tm_commit_order of { prev_core : int }
  | Msg_conservation of { modelled : int; actual : int }
  | Msg_fifo of { seq_expected : int; seq_got : int }
  | Msg_payload of { expected : string; got : string }
  | Msg_phantom of { seq : int }
  | Latch_double_fill of { dir : Inst.dir }
  | Latch_empty_get of { dir : Inst.dir }
  | Final_image_divergence of { expected : int; got : int }

let kind_class = function
  | Coherence_states _ | Coherence_sweep _ -> "coherence-states"
  | Read_divergence _ -> "read-divergence"
  | Aborted_store_leaked _ -> "tm-leak"
  | Tm_commit_order _ -> "tm-commit-order"
  | Msg_conservation _ -> "msg-conservation"
  | Msg_fifo _ -> "msg-fifo"
  | Msg_payload _ -> "msg-payload"
  | Msg_phantom _ -> "msg-phantom"
  | Latch_double_fill _ -> "latch-double-fill"
  | Latch_empty_get _ -> "latch-empty-get"
  | Final_image_divergence _ -> "final-image"

let kind_detail = function
  | Coherence_states { line; states } ->
    Printf.sprintf "line %d held as {%s}" line
      (String.concat ", "
         (List.map
            (fun (c, st) ->
              Printf.sprintf "core %d: %s" c
                (Format.asprintf "%a" Cache.pp_state st))
            states))
  | Coherence_sweep { msg } -> "end-of-run sweep: " ^ msg
  | Read_divergence { expected; got } ->
    Printf.sprintf "load returned %d, shadow holds %d" got expected
  | Aborted_store_leaked { expected; got } ->
    Printf.sprintf
      "memory holds %d after the abort, pre-transaction value was %d" got
      expected
  | Tm_commit_order { prev_core } ->
    Printf.sprintf "committed after core %d in the same cycle" prev_core
  | Msg_conservation { modelled; actual } ->
    Printf.sprintf "mirror models %d in-flight message(s), network holds %d"
      modelled actual
  | Msg_fifo { seq_expected; seq_got } ->
    Printf.sprintf "delivered seq %d while seq %d was older on the channel"
      seq_got seq_expected
  | Msg_payload { expected; got } ->
    Printf.sprintf "sent %s, delivered %s" expected got
  | Msg_phantom { seq } ->
    Printf.sprintf "delivered seq %d the mirror never saw sent" seq
  | Latch_double_fill { dir } ->
    Printf.sprintf "PUT %s onto an already-full latch" (Inst.dir_name dir)
  | Latch_empty_get { dir } ->
    Printf.sprintf "GET %s from a latch the mirror holds empty" (Inst.dir_name dir)
  | Final_image_divergence { expected; got } ->
    Printf.sprintf "final image holds %d, shadow holds %d" got expected

type violation = {
  v_kind : kind;
  v_cycle : int;
  v_core : int option;
  v_addr : int option;
  v_blame : (int * int) option;
}

let violation_to_string v =
  let b = Buffer.create 96 in
  Buffer.add_string b (Printf.sprintf "sanitizer [%s]" (kind_class v.v_kind));
  Buffer.add_string b (Printf.sprintf " cycle %d" v.v_cycle);
  (match v.v_core with
  | Some c -> Buffer.add_string b (Printf.sprintf " core %d" c)
  | None -> ());
  (match v.v_addr with
  | Some a -> Buffer.add_string b (Printf.sprintf " addr %d" a)
  | None -> ());
  (match v.v_blame with
  | Some (waiter, culprit) ->
    Buffer.add_string b (Printf.sprintf " (core %d <- core %d)" waiter culprit)
  | None -> ());
  Buffer.add_string b ": ";
  Buffer.add_string b (kind_detail v.v_kind);
  Buffer.contents b

let opt_int = function Some i -> Json.Int i | None -> Json.Null

let violation_to_json v =
  Json.Obj
    [
      ("class", Json.Str (kind_class v.v_kind));
      ("cycle", Json.Int v.v_cycle);
      ("core", opt_int v.v_core);
      ("addr", opt_int v.v_addr);
      ( "blame",
        match v.v_blame with
        | Some (w, c) -> Json.List [ Json.Int w; Json.Int c ]
        | None -> Json.Null );
      ("detail", Json.Str (kind_detail v.v_kind));
    ]

(* Per-(sender, receiver, class) channel mirror; the bool is "Start class"
   (SPAWN), mirroring the network's own unit of FIFO ordering. *)
type chan_key = int * int * bool

type t = {
  machine : Machine.t;
  san_policy : policy;
  log : string -> unit;
  limit : int;
  mem : Memory.t;
  hier : Coherence.t;
  net : Net.t;
  (* Golden last-writer-wins image, maintained from the TM's machine-wide
     load/store event stream. *)
  shadow : int array;
  (* Per-core mirror of the TM write buffer: reads inside a transaction
     check against it before the shadow; commits fold it into the shadow;
     aborts audit memory against it. *)
  tx_mirror : (int, int) Hashtbl.t array;
  channels : (chan_key, (int * Net.payload) Queue.t) Hashtbl.t;
  mutable outstanding : int;  (** mirror's in-flight message count *)
  mutable last_delta : int;  (** last reported conservation delta (dedup) *)
  latch_mirror : bool array array;  (** latch_mirror.(core).(dir_index) *)
  mutable last_commit : int * int;  (** cycle, core of the last TM commit *)
  mutable recorded : violation list;  (** newest first, bounded by [limit] *)
  mutable n_recorded : int;
  mutable total : int;
  by_class : (string, int) Hashtbl.t;
}

let record ?core ?addr ?blame t kind =
  let v =
    {
      v_kind = kind;
      v_cycle = Machine.now t.machine;
      v_core = core;
      v_addr = addr;
      v_blame = blame;
    }
  in
  t.total <- t.total + 1;
  let cls = kind_class kind in
  Hashtbl.replace t.by_class cls
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.by_class cls));
  if t.n_recorded < t.limit then begin
    t.recorded <- v :: t.recorded;
    t.n_recorded <- t.n_recorded + 1;
    t.log (violation_to_string v)
  end;
  match t.san_policy with
  | Report -> ()
  | Abort | Recover -> Machine.request_stop t.machine

(* --- Coherence oracle ------------------------------------------------------ *)

(* Single-writer/multiple-reader over the accessed line, checked after the
   protocol's state transition for the access has landed: at most one
   writable (M/E) copy and then no other sharer, at most one owned (O)
   copy. The rule is stated over cache states alone, never over protocol
   messages, so it is backend-independent: it holds verbatim for the snoop
   bus's MOESI and for the directory's MESI (which simply never produces
   O). The rule is [Coherence.single_writer_violation], which the end-of-run
   [Coherence.check_invariants] applies to every line (and additionally
   audits directory/cache agreement on that backend); here it runs per
   line per access. *)
let check_line t ~core addr =
  let line, states = Coherence.l1d_line_states t.hier ~addr in
  if Coherence.single_writer_violation states <> None then
    record t ~core ~addr (Coherence_states { line; states })

let on_access t ~core ~completion:_ kind addr =
  match kind with
  | Coherence.Ifetch -> ()
  | Coherence.Dload | Coherence.Dstore -> check_line t ~core addr

(* --- TM / shadow-memory oracle --------------------------------------------- *)

let on_commit t ~core =
  Hashtbl.iter (fun addr v -> t.shadow.(addr) <- v) t.tx_mirror.(core);
  Hashtbl.reset t.tx_mirror.(core);
  let now = Machine.now t.machine in
  let prev_cycle, prev_core = t.last_commit in
  if prev_cycle = now && core < prev_core then
    record t ~core (Tm_commit_order { prev_core });
  t.last_commit <- (now, core)

let on_abort t ~core =
  (* A rolled-back transaction must be architecturally invisible: memory at
     every buffered address must still agree with the shadow. *)
  Hashtbl.iter
    (fun addr _ ->
      let got = Memory.peek t.mem addr in
      if got <> t.shadow.(addr) then
        record t ~core ~addr
          (Aborted_store_leaked { expected = t.shadow.(addr); got }))
    t.tx_mirror.(core);
  Hashtbl.reset t.tx_mirror.(core)

let on_tm t ~core (action : Tm.action) ~addr ~value =
  match action with
  | Tm.Read | Tm.Read_tx ->
    let expected =
      match action with
      | Tm.Read_tx ->
        Option.value (Hashtbl.find_opt t.tx_mirror.(core) addr) ~default:t.shadow.(addr)
      | _ -> t.shadow.(addr)
    in
    if value <> expected then
      record t ~core ~addr (Read_divergence { expected; got = value })
  | Tm.Write -> t.shadow.(addr) <- value
  | Tm.Write_tx -> Hashtbl.replace t.tx_mirror.(core) addr value
  | Tm.Begin -> Hashtbl.reset t.tx_mirror.(core)
  | Tm.Commit -> on_commit t ~core
  | Tm.Abort -> on_abort t ~core

(* --- Network conservation -------------------------------------------------- *)

let payload_str = function
  | Net.Value v -> Printf.sprintf "value %d" v
  | Net.Start a -> Printf.sprintf "start @%d" a

let chan_key src dst (payload : Net.payload) : chan_key =
  (src, dst, match payload with Net.Start _ -> true | Net.Value _ -> false)

let channel t key =
  match Hashtbl.find_opt t.channels key with
  | Some q -> q
  | None ->
    let q = Queue.create () in
    Hashtbl.add t.channels key q;
    q

(* Drop [seq] from wherever it sits in [q] (the FIFO check already fired);
   [false] when it was never there — a phantom delivery. *)
let remove_seq q seq =
  let found = ref false in
  let keep = Queue.create () in
  Queue.iter (fun (s, p) -> if s = seq then found := true else Queue.push (s, p) keep) q;
  Queue.clear q;
  Queue.transfer keep q;
  !found

let dir_index = function Inst.North -> 0 | South -> 1 | East -> 2 | West -> 3

let on_net_event t = function
  | Net.Ev_send { ev_src; ev_dst; ev_seq; ev_payload } ->
    t.outstanding <- t.outstanding + 1;
    Queue.push (ev_seq, ev_payload) (channel t (chan_key ev_src ev_dst ev_payload))
  | Net.Ev_deliver { ev_src; ev_dst; ev_seq; ev_payload; ev_sent = _ } ->
    t.outstanding <- t.outstanding - 1;
    let blame = (ev_dst, ev_src) in
    let q = channel t (chan_key ev_src ev_dst ev_payload) in
    if Queue.is_empty q then
      record t ~core:ev_dst ~blame (Msg_phantom { seq = ev_seq })
    else begin
      let seq_expected, expected_payload = Queue.peek q in
      if seq_expected = ev_seq then begin
        ignore (Queue.pop q);
        if expected_payload <> ev_payload then
          record t ~core:ev_dst ~blame
            (Msg_payload
               {
                 expected = payload_str expected_payload;
                 got = payload_str ev_payload;
               })
      end
      else begin
        record t ~core:ev_dst ~blame (Msg_fifo { seq_expected; seq_got = ev_seq });
        if not (remove_seq q ev_seq) then
          record t ~core:ev_dst ~blame (Msg_phantom { seq = ev_seq })
      end
    end
  | Net.Ev_put { ev_src; ev_dst; ev_dir } ->
    let d = dir_index (Inst.opposite ev_dir) in
    if t.latch_mirror.(ev_dst).(d) then
      record t ~core:ev_dst ~blame:(ev_dst, ev_src)
        (Latch_double_fill { dir = ev_dir })
    else t.latch_mirror.(ev_dst).(d) <- true
  | Net.Ev_get { ev_core; ev_dir } ->
    let d = dir_index ev_dir in
    if not t.latch_mirror.(ev_core).(d) then
      record t ~core:ev_core (Latch_empty_get { dir = ev_dir })
    else t.latch_mirror.(ev_core).(d) <- false

(* Reconciliation at the end of every run-loop window: the mirror's
   send/deliver balance against the network's live in-flight count. A
   window the stall fast-forward skips holds no issue and no network
   service, so neither count can move inside it, and a silently vanished
   (or conjured) message still shows up the very cycle it happens. The
   delta is reported once per change, not once per window. *)
let check_conservation t =
  let actual = Net.in_flight_count t.net in
  let delta = t.outstanding - actual in
  if delta = 0 then t.last_delta <- 0
  else if delta <> t.last_delta then begin
    t.last_delta <- delta;
    record t (Msg_conservation { modelled = t.outstanding; actual })
  end

(* --- Attachment ------------------------------------------------------------ *)

let attach ?(policy = Abort) ?(log = fun _ -> ()) ?(limit = 32) m =
  let mem = Machine.memory m in
  let n = (Machine.config m).Voltron_machine.Config.n_cores in
  let t =
    {
      machine = m;
      san_policy = policy;
      log;
      limit;
      mem;
      hier = Machine.coherence m;
      net = Machine.network m;
      shadow = Array.init (Memory.size mem) (Memory.peek mem);
      tx_mirror = Array.init n (fun _ -> Hashtbl.create 32);
      channels = Hashtbl.create 32;
      outstanding = 0;
      last_delta = 0;
      latch_mirror = Array.init n (fun _ -> Array.make 4 false);
      last_commit = (-1, -1);
      recorded = [];
      n_recorded = 0;
      total = 0;
      by_class = Hashtbl.create 8;
    }
  in
  Machine.attach_probe m
    {
      Machine.null_probe with
      on_window = Some (fun ~from:_ ~upto:_ -> check_conservation t);
      on_access = Some (on_access t);
      on_tm = Some (on_tm t);
      on_net = Some (on_net_event t);
    };
  t

let finalize t ~completed =
  (match Coherence.check_invariants t.hier with
  | Ok _ -> ()
  | Error msg -> record t (Coherence_sweep { msg }));
  check_conservation t;
  if completed then
    (* The run finished and memory has been scrubbed: the image is final,
       so it must agree with the shadow word for word. *)
    for addr = 0 to Array.length t.shadow - 1 do
      let got = Memory.peek t.mem addr in
      if got <> t.shadow.(addr) then
        record t ~addr
          (Final_image_divergence { expected = t.shadow.(addr); got })
    done

(* --- Findings -------------------------------------------------------------- *)

type report = {
  r_policy : policy;
  r_total : int;
  r_recorded : violation list;
  r_by_class : (string * int) list;
}

let report t =
  {
    r_policy = t.san_policy;
    r_total = t.total;
    r_recorded = List.rev t.recorded;
    r_by_class =
      Hashtbl.fold (fun cls n acc -> (cls, n) :: acc) t.by_class []
      |> List.sort compare;
  }

let clean r = r.r_total = 0

let report_to_string r =
  if clean r then Printf.sprintf "sanitizer (%s): clean" (policy_name r.r_policy)
  else
    let classes =
      String.concat ", "
        (List.map (fun (c, n) -> Printf.sprintf "%s x%d" c n) r.r_by_class)
    in
    String.concat "\n"
      (Printf.sprintf "sanitizer (%s): %d violation(s): %s"
         (policy_name r.r_policy) r.r_total classes
      :: List.map (fun v -> "  " ^ violation_to_string v) r.r_recorded)

let report_to_json r =
  Json.Obj
    [
      ("policy", Json.Str (policy_name r.r_policy));
      ("total", Json.Int r.r_total);
      ( "by_class",
        Json.Obj (List.map (fun (c, n) -> (c, Json.Int n)) r.r_by_class) );
      ("violations", Json.List (List.map violation_to_json r.r_recorded));
    ]
