module Inst = Voltron_isa.Inst
module Bundle = Voltron_isa.Bundle
module Image = Voltron_isa.Image
module Program = Voltron_isa.Program
module Semantics = Voltron_isa.Semantics
module Memory = Voltron_mem.Memory
module Tm = Voltron_mem.Tm
module Coherence = Voltron_mem.Coherence
module Mesh = Voltron_net.Mesh
module Net = Voltron_net.Operand_network
module Fault = Voltron_fault.Fault
module Ecc = Voltron_fault.Ecc

(* Why a core cannot make progress this cycle — the unit of the watchdog's
   structured diagnosis, and (mapped through [stall_of_wait]) of the stall
   accounting. *)
type wait =
  | W_reg of Stats.stall_kind  (** scoreboard: source operand in flight *)
  | W_ifetch
  | W_dmem
  | W_btr  (** branch-target register still being written *)
  | W_recv of { sender : int; kind : Stats.stall_kind }
  | W_getb
  | W_send_full of int  (** receive queue of that core at capacity *)
  | W_get_latch of Inst.dir  (** GET with no same-cycle PUT on its latch *)
  | W_put_latch of Inst.dir  (** PUT into a full latch, or off the mesh *)
  | W_stall_fault  (** injected transient stall in effect *)
  | W_barrier of Inst.mode
  | W_commit
  | W_serial
  | W_asleep
  | W_halted

(* One cycle (or [k] identical cycles) of one core's time, as the probe
   sees it: busy issuing, waiting, or held by the coupled-mode stall bus on
   a peer's behalf. *)
type blame_event =
  | Blame_busy
  | Blame_wait of wait
  | Blame_lockstep of { b_kind : Stats.stall_kind }

(* The rare machine-wide events no other stream carries. *)
type event =
  | Mode_change of { cycle : int; mode : Inst.mode }
  | Tm_round of { cycle : int; conflict_at : int option }
  | Serial_start of { cycle : int; core : int }

type probe = {
  on_core_cycles :
    (core:int -> pc:int -> k:int -> upto:int -> redo:bool -> blame_event -> unit)
    option;
  on_event : (event -> unit) option;
  on_window : (from:int -> upto:int -> unit) option;
  on_net : (Net.event -> unit) option;
  on_tm : (core:int -> Tm.action -> addr:int -> value:int -> unit) option;
  on_access : (core:int -> completion:int -> Coherence.kind -> int -> unit) option;
}

type core_diag = {
  d_core : int;
  d_pc : int;
  d_wait : wait option;  (** [None]: the core could issue (not the culprit) *)
  d_bundle : string;  (** rendering of the bundle the core is stuck on *)
}

type diagnosis = {
  d_cycle : int;
  d_last_progress : int;
  d_mode : Inst.mode;
  d_cores : core_diag array;
  d_queue : (int * int * string) list;  (** in-flight messages: src, dst, state *)
  d_blame : (int * int) option;  (** blocked core -> core it is waiting on *)
}

type outcome =
  | Finished
  | Out_of_cycles
  | Deadlock of diagnosis
  | Fault_limit of diagnosis
  | Stopped of diagnosis

type result = {
  outcome : outcome;
  cycles : int;
  checksum : int;
}

type status =
  | Running
  | Asleep
  | Halted
  | At_barrier of Inst.mode
  | At_commit
  | Wait_serial
  | Stuck of wait
      (** wedged mid-bundle on a condition that can never clear (e.g. GET
          with no paired PUT); the watchdog will convert it to a diagnosis *)

(* What produced a register's in-flight value: classifies scoreboard
   stalls (paper Fig. 12 taxonomy). *)
type producer = P_load | P_recv_data | P_recv_pred | P_getb | P_other

type core_state = {
  id : int;
  image : Image.t;
  mutable pc : int;
  mutable status : status;
  mutable regs : int array;
  mutable ready : int array;
  mutable prod : producer array;
  btrs : int array;
  btr_ready : int array;
  mutable fetch_done : int;
  mutable mem_busy : int;
  (* In-order blocking cache (paper §3.2: "if one core stalls due to cache
     misses, all the cores must stall"): a miss freezes the core until the
     fill completes; hits stay pipelined through the scoreboard. *)
  mutable miss_stall_until : int;
  (* Injected transient stall fault: the core freezes until this cycle. *)
  mutable stall_until : int;
  (* Chunk snapshot for TM rollback: register file + the chunk's start pc. *)
  mutable tm_snapshot : (int array * int) option;
  mutable tm_serial : bool;
  (* VLIW read-before-write scratch: [snap.(r)] holds the pre-issue value of
     register [r] for the bundle currently issuing iff
     [snap_epoch.(r) = snap_gen]. Generation-stamped so taking a snapshot is
     O(sources), with no per-cycle clearing or allocation. *)
  mutable snap : int array;
  mutable snap_epoch : int array;
  mutable snap_gen : int;
  (* Decode cache: [dec] is [Image.decoded image dec_pc]. Filled lazily by
     [decoded] (a fuzz image may be empty, so nothing is decoded up
     front), it lets the blocker, the snapshot, comm-out and issue share
     one lookup per cycle. *)
  mutable dec_pc : int;
  mutable dec : Image.decoded;
  (* Deferred credit (decoupled mode under fast-forward). The sweep skips
     the core until cycle [due], the first cycle its verdict can change
     ([max_int]: only an event can change it); the cycles from [owed_from]
     on are owed to it with the verdict it was skipped on — [deferred] when
     Running, idle when Asleep or Halted — and are credited in one report
     by [settle]. [owed_from = max_int]: nothing is owed. *)
  mutable due : int;
  mutable owed_from : int;
  mutable deferred : wait;
  (* NOP-run elision (coupled mode under fast-forward, see [enter_run]).
     [nop_run.(pc)] is the length of the run of empty bundles from [pc]
     whose successors all lie in the same I-line ([[||]] when the machine
     cannot elide). While [el_left > 0] the core is in such a run: it
     skips the group issues after number [el_base], and [settle_run]
     credits them, one bundle each from [pc] on, at most [el_left]. *)
  nop_run : int array;
  mutable el_left : int;
  mutable el_base : int;
}

(* A coupled core's verdict for the current cycle. Constant constructors
   only, so the per-core stores into [sc_verdict] skip the write barrier. *)
type verdict = V_issue | V_elided | V_blocked | V_waiting

type t = {
  cfg : Config.t;
  prog : Program.t;
  mem : Memory.t;
  tm : Tm.t;
  hier : Coherence.t;
  net : Net.t;
  cores : core_state array;
  st : Stats.t;
  inj : Fault.t option;  (** fault injector; [None] when all rates are 0 *)
  ecc : Ecc.t option;  (** ECC shadow state, present iff [inj] is *)
  mutable mode : Inst.mode;
  mutable now : int;
  mutable serial_queue : int list;
  mutable last_progress : int;
  (* Every attached probe, composed. [None] (the default) keeps every report
     site to a single branch, off the allocation path. *)
  mutable probe : probe option;
  (* A stop request any probe callback can raise; the run loop converts it
     into a [Stopped] outcome at the end of the cycle. *)
  mutable stop_requested : bool;
  (* Stall fast-forward (Config.fast_forward). [ff_active] is resolved once
     at run entry: on unless the fault injector draws per cycle. No probe
     turns it off: core-cycle reports take deferred credit, and [on_window]
     sees each skipped window whole. [wake] is a scratch out-parameter of
     [blocker]: the first cycle its verdict can change. [sweep_next] is the
     first core the current decoupled sweep has not reached ([n] outside a
     sweep), so a mid-sweep [stats] read settles each core exactly as far as
     the per-cycle sweep would have credited it. [sc_verdict] and [sc_wait]
     (written for blocked cores only) are per-core scratch for the coupled
     step, preallocated to stay off the per-cycle allocation path. *)
  mutable ff_active : bool;
  mutable wake : int;
  mutable sweep_next : int;
  sc_verdict : verdict array;
  sc_wait : wait array;
  (* NOP-run elision, on when [elide_possible] holds and fast-forward is
     active. [group_issues] counts coupled group issues; [gi_ring] holds
     the cycles of the most recent ones ([gi_mask + 1] >= [line_words]
     slots, indexed by count), enough for the longest run. [issue_next]
     is the first core whose issue of the current group issue has not been
     credited yet (0 in phases 0/1, [n] outside a group issue), so a
     mid-issue [stats] or [pc] read settles each run exactly as far as
     per-cycle issue would have. *)
  mutable elide : bool;
  mutable group_issues : int;
  gi_ring : int array;
  gi_mask : int;
  mutable issue_next : int;
  (* The blocker's verdicts that carry a core number, built once:
     [recv_waits.(3 * sender + class)] and [send_full_waits.(target)];
     the probe's events for them, [recv_events] indexed by sender and
     stall kind ([wait_event]). *)
  recv_waits : wait option array;
  send_full_waits : wait option array;
  recv_events : blame_event array;
  send_full_events : blame_event array;
}

let initial_regs = 64

(* Status tests are pattern matches, not polymorphic [=]: [status] has
   constructors with arguments, so [=] would be a [caml_equal] call per
   core per cycle. *)
let is_running cs =
  match cs.status with
  | Running -> true
  | Asleep | Halted | At_barrier _ | At_commit | Wait_serial | Stuck _ -> false

(* The decode cache's contents before its first fill, under key -1 that no
   pc matches: the decode of an empty bundle. *)
let no_decoded =
  let b = Image.builder () in
  Image.emit b Bundle.empty;
  Image.decoded (Image.finish b) 0

(* The stall kind of each RECV class, indexed by [recv_class]. *)
let recv_kinds = [| Stats.Recv_data; Stats.Recv_pred; Stats.Sync |]

let recv_class = function Inst.Rv_data -> 0 | Inst.Rv_pred -> 1 | Inst.Rv_sync -> 2

let fresh_core cfg image id ~nop_run =
  {
    id;
    image;
    pc = 0;
    status = (if id = 0 then Running else Asleep);
    regs = Array.make initial_regs 0;
    ready = Array.make initial_regs 0;
    prod = Array.make initial_regs P_other;
    btrs = Array.make cfg.Config.n_btrs 0;
    btr_ready = Array.make cfg.Config.n_btrs 0;
    fetch_done = 0;
    mem_busy = 0;
    miss_stall_until = 0;
    stall_until = 0;
    tm_snapshot = None;
    tm_serial = false;
    snap = Array.make initial_regs 0;
    snap_epoch = Array.make initial_regs 0;
    snap_gen = 0;
    dec_pc = -1;
    dec = no_decoded;
    due = 0;
    owed_from = max_int;
    deferred = W_asleep;
    nop_run;
    el_left = 0;
    el_base = 0;
  }

(* The decoded bundle at the core's pc, through the core's decode cache. *)
let decoded cs =
  if cs.dec_pc <> cs.pc then begin
    cs.dec <- Image.decoded cs.image cs.pc;
    cs.dec_pc <- cs.pc
  end;
  cs.dec

(* Width legality from the op-class counts [Image.finish] computed; only an
   illegal bundle goes back to [Bundle.check] for its diagnostic. *)
let validate_widths cfg (prog : Program.t) =
  let issue_width = cfg.Config.issue_width
  and comm_width = cfg.Config.comm_width in
  Array.iter
    (fun image ->
      for addr = 0 to Image.length image - 1 do
        let d = Image.decoded image addr in
        if
          d.Image.d_real_ops - d.Image.d_n_comm > issue_width
          || d.Image.d_n_comm > comm_width
          || d.Image.d_n_branch > 1
        then Bundle.check ~issue_width ~comm_width (Image.fetch image addr)
      done)
    prog.images

(* NOP-run elision skips the issue of empty bundles, their fetches
   included, so it needs every skipped fetch to be an I-line memo hit that
   completes by the next cycle: a successor in the same line
   ([line_words > 1]) and [lat_l1 = 1]. *)
let elide_possible cfg =
  cfg.Config.fast_forward
  && cfg.Config.cache.Coherence.lat_l1 = 1
  && cfg.Config.cache.Coherence.line_words > 1

(* [runs.(pc)]: how many bundles from [pc] on are empty (no real op) and
   have their successor inside the image and in the same I-line. *)
let nop_runs (cache : Coherence.config) image =
  let len = Image.length image in
  let runs = Array.make len 0 in
  let lw = cache.Coherence.line_words in
  for pc = len - 2 downto 0 do
    if (Image.decoded image pc).Image.d_real_ops = 0 && (pc + 1) / lw = pc / lw
    then runs.(pc) <- 1 + runs.(pc + 1)
  done;
  runs

let create cfg (prog : Program.t) =
  if Program.n_cores prog <> cfg.Config.n_cores then
    invalid_arg
      (Printf.sprintf "Machine.create: program has %d cores, config %d"
         (Program.n_cores prog) cfg.Config.n_cores);
  validate_widths cfg prog;
  let mem = Memory.create prog.mem_size in
  Memory.load_init mem prog.mem_init;
  let inj =
    if Fault.enabled cfg.fault then Some (Fault.create cfg.fault) else None
  in
  let ecc =
    match inj with
    | None -> None
    | Some _ ->
      let e = Ecc.create () in
      Memory.attach_ecc mem e;
      Some e
  in
  let mesh = Config.mesh cfg in
  (* The smallest all-ones mask covering [line_words] slots. *)
  let gi_mask =
    let rec grow m =
      if m + 1 >= cfg.cache.line_words then m else grow ((2 * m) + 1)
    in
    grow 1
  in
  let t =
    {
      cfg;
      prog;
      mem;
      tm = Tm.create mem ~n_cores:cfg.n_cores;
      hier = Coherence.create cfg.cache ~n_cores:cfg.n_cores;
      net =
        Net.create ?faults:inj ~hop_cost:cfg.net_hop_cost mesh
          ~receive_capacity:cfg.net_capacity;
      cores =
        Array.init cfg.n_cores (fun id ->
            let image = prog.images.(id) in
            let nop_run =
              if elide_possible cfg then nop_runs cfg.cache image else [||]
            in
            fresh_core cfg image id ~nop_run);
      st = Stats.create ~n_cores:cfg.n_cores;
      inj;
      ecc;
      mode = Inst.Decoupled;
      now = 0;
      serial_queue = [];
      last_progress = 0;
      probe = None;
      stop_requested = false;
      ff_active = false;
      wake = max_int;
      sweep_next = cfg.n_cores;
      sc_verdict = Array.make cfg.n_cores V_waiting;
      sc_wait = Array.make cfg.n_cores W_halted;
      elide = false;
      group_issues = 0;
      gi_ring = Array.make (gi_mask + 1) 0;
      gi_mask;
      issue_next = cfg.n_cores;
      recv_waits =
        Array.init (3 * cfg.n_cores) (fun i ->
            Some (W_recv { sender = i / 3; kind = recv_kinds.(i mod 3) }));
      send_full_waits = Array.init cfg.n_cores (fun c -> Some (W_send_full c));
      recv_events =
        Array.init (Stats.n_stall_kinds * cfg.n_cores) (fun i ->
            let kind = List.nth Stats.all_stall_kinds (i mod Stats.n_stall_kinds) in
            Blame_wait (W_recv { sender = i / Stats.n_stall_kinds; kind }));
      send_full_events = Array.init cfg.n_cores (fun c -> Blame_wait (W_send_full c));
    }
  in
  (* Core 0's first fetch starts at cycle 0. *)
  t.cores.(0).fetch_done <- Coherence.access t.hier ~now:0 ~core:0 Coherence.Ifetch 0;
  t

let memory t = t.mem
let coherence t = t.hier
let network t = t.net
let tm t = t.tm
let now t = t.now
let mode t = t.mode

let null_probe =
  { on_core_cycles = None; on_event = None; on_window = None; on_net = None;
    on_tm = None; on_access = None }

(* [a]'s callbacks, then [b]'s; a field only one side sets is kept as is. *)
let compose a b =
  let join a b both =
    match (a, b) with None, x | x, None -> x | Some f, Some g -> Some (both f g)
  in
  let seq f g x = f x; g x in
  {
    on_core_cycles =
      join a.on_core_cycles b.on_core_cycles (fun f g ~core ~pc ~k ~upto ~redo ev ->
          f ~core ~pc ~k ~upto ~redo ev; g ~core ~pc ~k ~upto ~redo ev);
    on_event = join a.on_event b.on_event seq;
    on_window =
      join a.on_window b.on_window (fun f g ~from ~upto ->
          f ~from ~upto; g ~from ~upto);
    on_net = join a.on_net b.on_net seq;
    on_tm =
      join a.on_tm b.on_tm (fun f g ~core act ~addr ~value ->
          f ~core act ~addr ~value; g ~core act ~addr ~value);
    on_access =
      join a.on_access b.on_access (fun f g ~core ~completion kind addr ->
          f ~core ~completion kind addr; g ~core ~completion kind addr);
  }

let attach_probe t p =
  let p = match t.probe with None -> p | Some q -> compose q p in
  t.probe <- Some p;
  Option.iter (Net.set_monitor t.net) p.on_net;
  Option.iter (Tm.set_monitor t.tm) p.on_tm;
  Option.iter (Coherence.set_monitor t.hier) p.on_access

let set_on_window t f = attach_probe t { null_probe with on_window = Some f }
let request_stop t = t.stop_requested <- true
let config t = t.cfg

(* Forward a rare machine-wide event to the probe. *)
let emit t ev =
  match t.probe with Some { on_event = Some f; _ } -> f ev | Some _ | None -> ()

(* --- Register file with growth ------------------------------------------- *)

let ensure_reg cs r =
  let n = Array.length cs.regs in
  if r >= n then begin
    let n' = max (r + 1) (2 * n) in
    let grow a fill =
      let a' = Array.make n' fill in
      Array.blit a 0 a' 0 n;
      a'
    in
    cs.regs <- grow cs.regs 0;
    cs.ready <- grow cs.ready 0;
    cs.prod <- grow cs.prod P_other;
    cs.snap <- grow cs.snap 0;
    (* Epoch 0 never matches a live generation: [snap_gen] starts at 0 and
       is bumped before any snapshot is taken. *)
    cs.snap_epoch <- grow cs.snap_epoch 0
  end

let read_reg cs r =
  ensure_reg cs r;
  cs.regs.(r)

(* Phase-2 register write. No growth check: [snapshot_sources] already grew
   the file to the bundle's [d_max_reg], which covers every def. *)
let write_reg cs r v ~ready ~prod =
  cs.regs.(r) <- v;
  cs.ready.(r) <- ready;
  cs.prod.(r) <- prod

let reg t ~core r = read_reg t.cores.(core) r

(* --- Stall analysis ------------------------------------------------------ *)

let stall_of_wait = function
  | W_reg k -> k
  | W_ifetch -> Stats.I_stall
  | W_dmem -> Stats.D_stall
  | W_btr -> Stats.Lat_stall
  | W_recv { kind; _ } -> kind
  | W_getb | W_send_full _ | W_get_latch _ | W_put_latch _ | W_stall_fault
  | W_barrier _ | W_commit | W_serial | W_asleep | W_halted ->
    Stats.Sync

(* Which core is [core] waiting on, when its wait names one — shared by the
   watchdog's diagnosis and the causal profiler's blame edges. *)
let blame_of t ~core w =
  match w with
  | W_recv { sender; _ } -> Some sender
  | W_get_latch dir | W_put_latch dir -> Mesh.neighbour (Net.mesh t.net) core dir
  | W_send_full dst -> Some dst
  | W_commit ->
    Array.to_list t.cores
    |> List.find_opt (fun c ->
           match c.status with At_commit -> false | _ -> true)
    |> Option.map (fun c -> c.id)
  | W_barrier _ ->
    Array.to_list t.cores
    |> List.find_opt (fun c ->
           match c.status with At_barrier _ -> false | _ -> true)
    |> Option.map (fun c -> c.id)
  | W_serial -> (
    match t.serial_queue with
    | head :: _ when head <> core -> Some head
    | _ -> None)
  | W_reg _ | W_ifetch | W_dmem | W_btr | W_getb | W_stall_fault | W_asleep
  | W_halted ->
    None

(* The wait a non-Running status stands for; every arm is a constant. *)
let wait_of_status = function
  | Running -> assert false
  | Asleep -> W_asleep
  | Halted -> W_halted
  | At_barrier Inst.Coupled -> W_barrier Inst.Coupled
  | At_barrier Inst.Decoupled -> W_barrier Inst.Decoupled
  | At_commit -> W_commit
  | Wait_serial -> W_serial
  | Stuck w -> w

(* --- Core-cycle credit -----------------------------------------------------

   Every core-cycle is classified exactly once, through one of the five
   functions below: each updates [Stats] and reports to the probe, [k]
   identical cycles ending at cycle [upto] at a time ([k > 1] only under
   fast-forward: a deferred credit, a coupled group-stall window or a
   status wait across a whole-machine jump). With no probe attached each
   site costs one branch and allocates nothing. *)

(* The probe's events, preallocated so a report allocates nothing: static
   constants, one per stall kind, and the machine's tables for the waits
   that name a core. Only a peer outside the machine, or a wedged GET,
   gets a fresh one. *)
let by_kind f = Array.of_list (List.map f Stats.all_stall_kinds)
let reg_events = by_kind (fun k -> Blame_wait (W_reg k))
let lockstep_events = by_kind (fun k -> Blame_lockstep { b_kind = k })

let wait_event t w =
  let n = Array.length t.cores in
  match w with
  | W_reg k -> reg_events.(Stats.stall_kind_index k)
  | W_recv { sender; kind } when sender >= 0 && sender < n ->
    t.recv_events.((Stats.n_stall_kinds * sender) + Stats.stall_kind_index kind)
  | W_send_full dst when dst >= 0 && dst < n -> t.send_full_events.(dst)
  | W_ifetch -> Blame_wait W_ifetch | W_dmem -> Blame_wait W_dmem | W_btr -> Blame_wait W_btr
  | W_getb -> Blame_wait W_getb | W_stall_fault -> Blame_wait W_stall_fault
  | W_commit -> Blame_wait W_commit | W_serial -> Blame_wait W_serial
  | W_asleep -> Blame_wait W_asleep | W_halted -> Blame_wait W_halted
  | W_barrier Inst.Coupled -> Blame_wait (W_barrier Inst.Coupled)
  | W_barrier Inst.Decoupled -> Blame_wait (W_barrier Inst.Decoupled)
  | W_recv _ | W_send_full _ | W_get_latch _ | W_put_latch _ -> Blame_wait w

let report_wait t cs w ~k ~upto =
  match t.probe with
  | Some { on_core_cycles = Some f; _ } ->
    f ~core:cs.id ~pc:cs.pc ~k ~upto ~redo:cs.tm_serial (wait_event t w)
  | Some _ | None -> ()

(* A running core blocked on its own wait [w]. *)
let credit_wait t cs w ~k ~upto =
  Stats.add_stall t.st ~core:cs.id (stall_of_wait w) k;
  report_wait t cs w ~k ~upto

(* A core whose status is the wait — at a barrier or commit round, queued
   for the serial token, or wedged: a sync stall. Always credited at the
   current cycle, because its blame edge reads the peers' status now. *)
let credit_status t cs k =
  Stats.add_stall t.st ~core:cs.id Stats.Sync k;
  report_wait t cs (wait_of_status cs.status) ~k ~upto:t.now

(* An issueable coupled core held by the stall bus: charged with the
   peers' dominant stall [kind], the lock-step overhead the coupled mode
   pays. *)
let credit_lockstep t cs kind k =
  Stats.add_stall t.st ~core:cs.id kind k;
  match t.probe with
  | Some { on_core_cycles = Some f; _ } ->
    f ~core:cs.id ~pc:cs.pc ~k ~upto:t.now ~redo:cs.tm_serial
      lockstep_events.(Stats.stall_kind_index kind)
  | Some _ | None -> ()

(* An asleep or halted core. *)
let credit_idle t cs ~k ~upto =
  let core_st = Stats.core t.st cs.id in
  core_st.idle <- core_st.idle + k;
  match t.probe with
  | Some { on_core_cycles = Some f; _ } ->
    (* A just-woken core (status already Running in [try_wake]) spent the
       cycle asleep waiting for its START — report it as such. *)
    let ev = match cs.status with Halted -> Blame_wait W_halted | _ -> Blame_wait W_asleep in
    f ~core:cs.id ~pc:cs.pc ~k ~upto ~redo:false ev
  | Some _ | None -> ()

(* A core that issued the bundle [d] at [pc]; [redo] marks serial TM
   re-execution work. *)
let credit_busy t cs ~pc ~redo (d : Image.decoded) =
  let core_st = Stats.core t.st cs.id in
  core_st.busy <- core_st.busy + 1;
  core_st.bundles <- core_st.bundles + 1;
  core_st.ops <- core_st.ops + d.Image.d_real_ops;
  core_st.ops_mem <- core_st.ops_mem + d.Image.d_n_mem;
  core_st.ops_comm <- core_st.ops_comm + d.Image.d_n_comm;
  core_st.ops_mul_div <- core_st.ops_mul_div + d.Image.d_n_muldiv;
  match t.probe with
  | Some { on_core_cycles = Some f; _ } ->
    f ~core:cs.id ~pc ~k:1 ~upto:t.now ~redo Blame_busy
  | Some _ | None -> ()

(* Credit the cycles core [cs] is owed, through [upto], in one report: the
   verdict it was skipped on still holds for all of them (its status is
   unchanged while it is skipped). *)
let settle t cs upto =
  if upto >= cs.owed_from then begin
    let k = upto - cs.owed_from + 1 in
    cs.owed_from <- upto + 1;
    match cs.status with
    | Running -> credit_wait t cs cs.deferred ~k ~upto
    | Asleep | Halted -> credit_idle t cs ~k ~upto
    | At_barrier _ | At_commit | Wait_serial | Stuck _ -> assert false
  end

(* Credit the bundles of core [cs]'s elided run issued through group issue
   [g]: each one busy cycle at its own pc, at the cycle [gi_ring] recorded
   for its group issue, and the pc and fetch completion they leave. *)
let settle_run t cs g =
  let k = Int.min (g - cs.el_base) cs.el_left in
  if k > 0 then begin
    let core_st = Stats.core t.st cs.id in
    core_st.busy <- core_st.busy + k;
    core_st.bundles <- core_st.bundles + k;
    (match t.probe with
    | Some { on_core_cycles = Some f; _ } ->
      for j = 0 to k - 1 do
        f ~core:cs.id ~pc:(cs.pc + j) ~k:1
          ~upto:t.gi_ring.((cs.el_base + 1 + j) land t.gi_mask)
          ~redo:cs.tm_serial Blame_busy
      done
    | Some _ | None -> ());
    cs.pc <- cs.pc + k;
    cs.el_base <- cs.el_base + k;
    cs.el_left <- cs.el_left - k;
    cs.fetch_done <-
      t.gi_ring.(cs.el_base land t.gi_mask) + t.cfg.Config.cache.Coherence.lat_l1
  end

(* Settle core [i]'s elided run as far as per-cycle issue has credited it:
   during a group issue the cores before [issue_next] have issued this
   cycle, the rest not yet. *)
let settle_run_at t i =
  let cs = t.cores.(i) in
  if cs.el_left > 0 then
    settle_run t cs
      (if i < t.issue_next then t.group_issues else t.group_issues - 1)

(* Settle every core through the last simulated cycle: a core the current
   sweep has already passed through [t.now], the rest through the cycle
   before (their verdict for [t.now] is not known yet); and every elided
   run likewise. *)
let settle_all t =
  let last = Int.min t.now t.cfg.Config.max_cycles in
  for i = 0 to Array.length t.cores - 1 do
    settle t t.cores.(i) (if i < t.sweep_next then last else last - 1);
    settle_run_at t i
  done

(* An event that can change core [c]'s verdict: it is due this cycle if
   the sweep has yet to reach it, else next cycle. *)
let make_due t c =
  let cs = t.cores.(c) in
  if cs.due > t.now then cs.due <- t.now

let make_all_due t =
  for c = 0 to Array.length t.cores - 1 do
    make_due t c
  done

let stats t =
  settle_all t;
  t.st

let pc t ~core =
  settle_run_at t core;
  t.cores.(core).pc

(* The blocker's verdicts, allocation-free (see [recv_waits]); only a peer
   outside the machine, which unchecked assembly can name, gets a fresh
   one. *)
let recv_wait t ~sender kind =
  if sender >= 0 && sender < Array.length t.cores then
    t.recv_waits.((3 * sender) + recv_class kind)
  else Some (W_recv { sender; kind = recv_kinds.(recv_class kind) })

let send_full_wait t target =
  if target >= 0 && target < Array.length t.cores then t.send_full_waits.(target)
  else Some (W_send_full target)

(* A scoreboard wait; each arm is a static constant. *)
let reg_wait = function
  | P_load -> Some (W_reg Stats.D_stall)
  | P_recv_data -> Some (W_reg Stats.Recv_data)
  | P_recv_pred -> Some (W_reg Stats.Recv_pred)
  | P_getb -> Some (W_reg Stats.Sync)
  | P_other -> Some (W_reg Stats.Lat_stall)

(* First reason the core cannot issue its current bundle this cycle, or
   [None] when it can. Architecturally side-effect-free; as an
   out-parameter it leaves in [t.wake] the first cycle at which the verdict
   it returned can change (the expiry of the FIRST failing condition in
   scan order — a later condition may then take over, which is why the
   fast-forward window ends there and not at "when the core can issue").
   Wake times that need a network walk are only computed under
   [t.ff_active]; event-driven waits report [max_int]. *)
(* The per-op and per-register scans are toplevel functions threading
   their context as arguments: the blocker runs for every due running
   core every cycle, and a local closure here would cost ~20 heap words
   per core-cycle. *)
let blocker_check_op t cs now op =
  match op with
  | Inst.Load _ | Inst.Store _ ->
    if cs.mem_busy > now then begin
      t.wake <- cs.mem_busy;
      Some W_dmem
    end
    else None
  | Inst.Br { btr; _ } ->
    if cs.btr_ready.(btr) > now then begin
      t.wake <- cs.btr_ready.(btr);
      Some W_btr
    end
    else None
  | Inst.Recv { sender; kind; _ } ->
    if Net.recv_ready t.net ~now ~core:cs.id ~sender then None
    else begin
      if t.ff_active then
        t.wake <- Net.next_value_ready t.net ~core:cs.id ~sender;
      recv_wait t ~sender kind
    end
  | Inst.Getb _ ->
    if Net.getb_ready t.net ~now ~core:cs.id then None
    else begin
      if t.ff_active then t.wake <- Net.getb_wake t.net ~core:cs.id;
      Some W_getb
    end
  | Inst.Send { target; _ } | Inst.Spawn { target; _ } ->
    if Net.pending t.net ~src:cs.id ~dst:target >= t.cfg.net_capacity
    then begin
      (* Drains only when the receiver issues its RECV — event-driven. *)
      t.wake <- max_int;
      send_full_wait t target
    end
    else None
  | Inst.Alu _ | Inst.Fpu _ | Inst.Cmp _ | Inst.Select _ | Inst.Mov _
  | Inst.Pbr _ | Inst.Bcast _ | Inst.Put _ | Inst.Get _ | Inst.Sleep
  | Inst.Mode_switch _ | Inst.Tm_begin | Inst.Tm_commit | Inst.Halt
  | Inst.Nop ->
    None

let rec blocker_reg_loop t cs now (u : int array) j =
  if j >= Array.length u then None
  else
    let r = u.(j) in
    if cs.ready.(r) > now then begin
      t.wake <- cs.ready.(r);
      reg_wait cs.prod.(r)
    end
    else blocker_reg_loop t cs now u (j + 1)

let rec blocker_op_loop t cs now (ops : Inst.t array) (uses : int array array)
    n_ops i =
  if i >= n_ops then None
  else
    match blocker_reg_loop t cs now uses.(i) 0 with
    | Some _ as s -> s
    | None -> (
      match blocker_check_op t cs now ops.(i) with
      | Some _ as s -> s
      | None -> blocker_op_loop t cs now ops uses n_ops (i + 1))

let blocker t cs =
  let now = t.now in
  if now < cs.stall_until then begin
    t.wake <- cs.stall_until;
    Some W_stall_fault
  end
  else if now < cs.miss_stall_until then begin
    t.wake <- cs.miss_stall_until;
    Some W_dmem
  end
  else if now < cs.fetch_done then begin
    t.wake <- cs.fetch_done;
    Some W_ifetch
  end
  else begin
    let d = decoded cs in
    if d.Image.d_max_reg >= 0 then ensure_reg cs d.Image.d_max_reg;
    blocker_op_loop t cs now d.Image.d_ops d.Image.d_uses
      (Array.length d.Image.d_ops) 0
  end

(* --- Bundle execution ----------------------------------------------------- *)

(* VLIW read-before-write: snapshot every source register of the bundle
   before any of its effects land — into the core's generation-stamped
   scratch, so a snapshot costs O(sources) writes and no allocation. *)
let snapshot_sources cs (d : Image.decoded) =
  if d.Image.d_max_reg >= 0 then ensure_reg cs d.Image.d_max_reg;
  cs.snap_gen <- cs.snap_gen + 1;
  let srcs = d.Image.d_srcs in
  for i = 0 to Array.length srcs - 1 do
    let r = srcs.(i) in
    cs.snap.(r) <- cs.regs.(r);
    cs.snap_epoch.(r) <- cs.snap_gen
  done

let read_operand cs (o : Inst.operand) =
  match o with
  | Inst.Imm i -> i
  | Inst.Reg r ->
    if r < Array.length cs.snap_epoch && cs.snap_epoch.(r) = cs.snap_gen then
      cs.snap.(r)
    else failwith "Machine: operand missing from bundle source snapshot"

(* A SEND's or SPAWN's message into the network; [target] may be waiting
   for it. *)
let send t cs ~now target payload =
  (match Net.send t.net ~now ~src:cs.id ~dst:target payload with
  | Ok () -> ()
  | Error Net.Channel_full ->
    (* Overflow NACK: the send is parked and retried with backoff rather
       than wedging the machine (can only arise under fault injection,
       where a retrying message holds its channel slot longer than the
       occupancy the issue check saw). *)
    Net.defer t.net ~now ~src:cs.id ~dst:target payload
  | Error (Net.Bad_destination _ as e) ->
    failwith
      (Printf.sprintf "core %d cycle %d: %s" cs.id now
         (Net.error_to_string (Net.Send_failed e))));
  make_due t target

(* Phase 1: communication-out ops (PUT/BCAST/SEND/SPAWN), executed for all
   issuing cores before any core's phase 2, so that same-cycle PUT/GET and
   BCAST pairing works across cores. *)
let exec_comm_out t cs op =
  let now = t.now in
  match op with
  | Inst.Put { dir; src } -> (
    match Net.put t.net ~now ~src_core:cs.id dir (read_operand cs src) with
    | Ok () -> ()
    | Error (Net.Off_mesh | Net.Latch_full _) ->
      (* A broken lock-step contract, as for a GET with no paired PUT. *)
      cs.status <- Stuck (W_put_latch dir))
  | Inst.Bcast { src } ->
    Net.bcast t.net ~now ~src_core:cs.id (read_operand cs src);
    make_all_due t
  | Inst.Send { target; src } -> send t cs ~now target (Net.Value (read_operand cs src))
  | Inst.Spawn { target; entry } ->
    let addr = Image.resolve t.prog.images.(target) entry in
    t.st.spawns <- t.st.spawns + 1;
    send t cs ~now target (Net.Start addr)
  | Inst.Alu _ | Inst.Fpu _ | Inst.Cmp _ | Inst.Select _ | Inst.Load _
  | Inst.Store _ | Inst.Mov _ | Inst.Pbr _ | Inst.Br _ | Inst.Getb _
  | Inst.Get _ | Inst.Recv _ | Inst.Sleep | Inst.Mode_switch _ | Inst.Tm_begin
  | Inst.Tm_commit | Inst.Halt | Inst.Nop ->
    invalid_arg "exec_comm_out: not a communication-out op"

(* Phase 1 for one core's bundle. *)
let exec_comm_outs t cs (d : Image.decoded) =
  if d.Image.d_has_comm_out then begin
    let ops = d.Image.d_ops in
    for i = 0 to Array.length ops - 1 do
      if d.Image.d_comm_out.(i) then exec_comm_out t cs ops.(i)
    done
  end

(* Phase 2: everything else. Returns the branch target when the bundle's
   branch is taken. *)
let exec_main t cs (d : Image.decoded) i : int option =
  let now = t.now in
  let op = d.Image.d_ops.(i) in
  let lat = Config.latency op in
  match op with
  | Inst.Alu { op = a; dst; src1; src2 } ->
    write_reg cs dst (Semantics.alu a (read_operand cs src1) (read_operand cs src2)) ~ready:(now + lat)
      ~prod:P_other;
    None
  | Inst.Fpu { op = f; dst; src1; src2 } ->
    write_reg cs dst (Semantics.fpu f (read_operand cs src1) (read_operand cs src2)) ~ready:(now + lat)
      ~prod:P_other;
    None
  | Inst.Cmp { op = c; dst; src1; src2 } ->
    write_reg cs dst (Semantics.cmp c (read_operand cs src1) (read_operand cs src2)) ~ready:(now + lat)
      ~prod:P_other;
    None
  | Inst.Select { dst; pred; if_true; if_false } ->
    let v = if Semantics.truthy (read_operand cs pred) then read_operand cs if_true else read_operand cs if_false in
    write_reg cs dst v ~ready:(now + lat) ~prod:P_other;
    None
  | Inst.Mov { dst; src } ->
    write_reg cs dst (read_operand cs src) ~ready:(now + lat) ~prod:P_other;
    None
  | Inst.Load { dst; base; offset } ->
    let addr = read_operand cs base + read_operand cs offset in
    let ecc_before = match t.ecc with Some e -> Ecc.corrected e | None -> 0 in
    let v = Tm.read t.tm ~core:cs.id addr in
    let completion = Coherence.access t.hier ~now ~core:cs.id Coherence.Dload addr in
    let completion =
      (* A demand ECC correction adds the detect/correct/writeback penalty
         on top of whatever the hierarchy charged. *)
      match t.ecc with
      | Some e when Ecc.corrected e > ecc_before ->
        completion + t.cfg.fault.Fault.ecc_penalty
      | Some _ | None -> completion
    in
    cs.mem_busy <- Int.max cs.mem_busy completion;
    if completion > now + t.cfg.cache.Coherence.lat_l1 then
      cs.miss_stall_until <- Int.max cs.miss_stall_until completion;
    write_reg cs dst v ~ready:(Int.max (now + lat) completion) ~prod:P_load;
    None
  | Inst.Store { base; offset; src } ->
    let addr = read_operand cs base + read_operand cs offset in
    Tm.write t.tm ~core:cs.id addr (read_operand cs src);
    let completion = Coherence.access t.hier ~now ~core:cs.id Coherence.Dstore addr in
    cs.mem_busy <- Int.max cs.mem_busy completion;
    if completion > now + t.cfg.cache.Coherence.lat_l1 then
      cs.miss_stall_until <- Int.max cs.miss_stall_until completion;
    None
  | Inst.Pbr { btr; _ } ->
    let addr = d.Image.d_pbr_addr.(i) in
    (* A label absent from the image fails here, as [Image.resolve] does. *)
    if addr < 0 then raise Not_found;
    cs.btrs.(btr) <- addr;
    cs.btr_ready.(btr) <- now + lat;
    None
  | Inst.Br { btr; pred; invert } ->
    let taken =
      match pred with
      | None -> true
      | Some p ->
        let v = Semantics.truthy (read_operand cs p) in
        if invert then not v else v
    in
    if taken then Some cs.btrs.(btr) else None
  | Inst.Getb { dst } -> (
    match Net.getb t.net ~now ~core:cs.id with
    | Some v ->
      write_reg cs dst v ~ready:(now + lat) ~prod:P_getb;
      None
    | None -> failwith (Printf.sprintf "core %d cycle %d: GETB on empty broadcast" cs.id now))
  | Inst.Get { dir; dst } -> (
    match Net.get t.net ~now ~core:cs.id dir with
    | Some v ->
      write_reg cs dst v ~ready:(now + lat) ~prod:P_other;
      None
    | None ->
      (* No PUT paired with this GET in this cycle (the latch is empty or
         stale): the lock-step contract is broken (compiler or program
         bug). Wedge the core so the watchdog reports a structured
         diagnosis naming it, instead of tearing the simulator down. *)
      cs.status <- Stuck (W_get_latch dir);
      None)
  | Inst.Recv { sender; dst; kind } -> (
    match Net.recv t.net ~now ~core:cs.id ~sender with
    | Some v ->
      (* The sender may be blocked on this channel's capacity. *)
      make_due t sender;
      let prod =
        match kind with
        | Inst.Rv_data -> P_recv_data
        | Inst.Rv_pred -> P_recv_pred
        | Inst.Rv_sync -> P_other
      in
      write_reg cs dst v ~ready:(now + lat) ~prod;
      None
    | None -> failwith (Printf.sprintf "core %d cycle %d: RECV raced its readiness check" cs.id now))
  | Inst.Sleep ->
    cs.status <- Asleep;
    None
  | Inst.Mode_switch m ->
    cs.status <- At_barrier m;
    None
  | Inst.Tm_begin ->
    if not cs.tm_serial then begin
      Tm.tx_begin t.tm ~core:cs.id;
      cs.tm_snapshot <- Some (Array.copy cs.regs, cs.pc)
    end;
    None
  | Inst.Tm_commit ->
    if cs.tm_serial then cs.tm_serial <- false (* serial chunk done *)
    else cs.status <- At_commit;
    None
  | Inst.Halt ->
    cs.status <- Halted;
    None
  | Inst.Nop -> None
  | Inst.Put _ | Inst.Bcast _ | Inst.Send _ | Inst.Spawn _ ->
    invalid_arg "exec_main: communication-out op in phase 2"

let initiate_fetch t cs =
  cs.fetch_done <-
    Coherence.access t.hier ~now:t.now ~core:cs.id Coherence.Ifetch cs.pc

(* Run one issuing core's full bundle (both phases are driven by the cycle
   loop; this is phase 2 plus pc update). *)
let finish_issue t cs (d : Image.decoded) =
  let issued_pc = cs.pc in
  (* [tm_serial] can be cleared mid-bundle by this bundle's TM_COMMIT, so
     capture it now: the serial chunk's final bundle is still re-execution
     work to the causal profiler. *)
  let was_redo = cs.tm_serial in
  let ops = d.Image.d_ops in
  let target = ref None in
  for i = 0 to Array.length ops - 1 do
    if not d.Image.d_comm_out.(i) then
      match exec_main t cs d i with
      | Some _ as tgt -> target := tgt
      | None -> ()
  done;
  let target = !target in
  t.last_progress <- t.now;
  (match cs.status with
  | Running ->
    cs.pc <- (match target with Some tgt -> tgt | None -> cs.pc + 1);
    initiate_fetch t cs
  | Asleep | Halted -> ()
  | Stuck _ ->
    (* The bundle did not complete; freeze the pc for the diagnosis. *)
    ()
  | At_barrier _ | At_commit | Wait_serial ->
    (* Resume point: past this bundle (barrier ops never co-issue with a
       taken branch in generated code, but honour one if present). *)
    cs.pc <- (match target with Some tgt -> tgt | None -> cs.pc + 1));
  credit_busy t cs ~pc:issued_pc ~redo:was_redo d

(* --- Per-cycle stepping and stall fast-forward ----------------------------

   Under fast-forward a decoupled core is evaluated only when it is due:
   at the first cycle its verdict can change. A blocked core is due at its
   blocker's wake (the expiry of its FIRST failing condition in scan order
   — scoreboard thresholds and message arrival times are fixed until then,
   because only the core's own issue moves them), an asleep core when a
   START can first be taken, a halted core never. Between evaluations the
   sweep skips it and its cycles are owed, with the verdict it was skipped
   on, until [settle] credits them in one report: when the core is next
   evaluated, when [stats] is read, or at the end of [run]. The events
   that can change a skipped core's verdict make it due at once
   ([make_due]): a SEND or SPAWN to it, a RECV draining a channel it may be
   blocked sending on, a START taken, a BCAST. Status waits (barrier,
   commit, serial, stuck) are credited per cycle, since their blame edge
   reads the peers' status. When no core is due the whole machine jumps to
   the earliest due cycle, crediting only the status waits.

   Without fast-forward every core is due every cycle, so the same sweep
   is the per-cycle reference the differential tests compare against. *)

(* Last cycle of the window starting at [t.now]: the cycle before the
   earliest verdict change, clipped so Out_of_cycles and the watchdog fire
   at exactly the cycle the per-cycle loop would. [min_wake > t.now]
   always (a currently-failing condition cannot expire in the past), so
   the window is never empty. *)
let window_end t ~min_wake =
  Int.min (min_wake - 1)
    (Int.min t.cfg.Config.max_cycles (t.last_progress + t.cfg.Config.watchdog + 1))

(* Skip the core until [due]; it owes the cycles after this one. *)
let defer t cs due =
  if t.ff_active then begin
    cs.due <- Int.max (t.now + 1) due;
    cs.owed_from <- t.now + 1
  end

let try_wake t cs =
  match Net.take_start t.net ~now:t.now ~core:cs.id with
  | Some addr ->
    cs.pc <- addr;
    cs.status <- Running;
    initiate_fetch t cs;
    (* The spawner may be blocked on the START's channel capacity. *)
    make_all_due t;
    credit_idle t cs ~k:1 ~upto:t.now
  | None ->
    credit_idle t cs ~k:1 ~upto:t.now;
    defer t cs (Net.next_start_ready t.net ~core:cs.id)

(* Issue one decoupled core's bundle: snapshot, phase 1 (communication
   out), phase 2. *)
let issue_decoupled t cs =
  let d = decoded cs in
  snapshot_sources cs d;
  exec_comm_outs t cs d;
  finish_issue t cs d

(* Evaluate a due decoupled core: settle what it is owed, then run its
   cycle. *)
let decoupled_core_step t cs =
  settle t cs (t.now - 1);
  cs.owed_from <- max_int;
  cs.due <- t.now + 1;
  match cs.status with
  | Halted ->
    credit_idle t cs ~k:1 ~upto:t.now;
    defer t cs max_int
  | Asleep -> try_wake t cs
  | Running -> (
    t.wake <- max_int;
    match blocker t cs with
    | Some w ->
      credit_wait t cs w ~k:1 ~upto:t.now;
      cs.deferred <- w;
      defer t cs t.wake
    | None -> issue_decoupled t cs)
  | Wait_serial | At_barrier _ | At_commit | Stuck _ -> assert false

(* The earliest due cycle over the cores that are not in a status wait. *)
let min_due (cores : core_state array) =
  let m = ref max_int in
  for i = 0 to Array.length cores - 1 do
    let cs = cores.(i) in
    match cs.status with
    | Running | Asleep | Halted -> if cs.due < !m then m := cs.due
    | Wait_serial | At_barrier _ | At_commit | Stuck _ -> ()
  done;
  !m

(* Decoupled: each core progresses independently, in core order — a core's
   issue is visible to later cores' checks within the same cycle. *)
let decoupled_step t =
  let cores = t.cores in
  let n = Array.length cores in
  let now = t.now in
  let due = if t.ff_active then min_due cores else now in
  if due > now then begin
    (* No core is due: nothing can change machine state before [due], so
       the window runs to the cycle before it. Skipped cores keep owing;
       status waits are frozen and take the window in one credit. *)
    let e = window_end t ~min_wake:due in
    let k = e - now + 1 in
    t.st.decoupled_cycles <- t.st.decoupled_cycles + (k - 1);
    t.now <- e;
    for i = 0 to n - 1 do
      let cs = cores.(i) in
      match cs.status with
      | Wait_serial | At_barrier _ | At_commit | Stuck _ -> credit_status t cs k
      | Running | Asleep | Halted -> ()
    done
  end
  else begin
    for i = 0 to n - 1 do
      let cs = cores.(i) in
      t.sweep_next <- i;
      match cs.status with
      | Wait_serial | At_barrier _ | At_commit | Stuck _ -> credit_status t cs 1
      | Running | Asleep | Halted ->
        if cs.due <= now then decoupled_core_step t cs
    done;
    t.sweep_next <- n
  end

(* NOP-run elision. A coupled core that has just issued, at cycle [now],
   and now sits at the head of a run of empty bundles each followed in the
   same I-line, can issue nothing but those bundles at its next group
   issues: its verdict is None at every cycle until the run ends, because
   an empty bundle checks no operand, its fetch is an I-line memo hit
   completing the cycle after its issue ([lat_l1 = 1]), and a clear
   [miss_stall_until] and [stall_until] change only through the core's own
   loads and stores (the fault injector turns fast-forward off). So the
   core skips those group issues: no blocker, snapshot, comm-out,
   execution, fetch or credit until [settle_run] credits them from
   [group_issues]. *)
let enter_run t cs =
  let pc = cs.pc in
  if pc >= 0 && pc < Array.length cs.nop_run && is_running cs then begin
    let e = cs.nop_run.(pc) and next = t.now + 1 in
    if e > 0 && cs.fetch_done <= next && cs.miss_stall_until <= next
       && cs.stall_until <= next
    then begin
      cs.el_left <- e;
      cs.el_base <- t.group_issues
    end
  end

(* Coupled: lock-step with the stall bus — either every running core
   issues, or none does. One indexed scan computes each core's verdict
   once (and checks the status invariant off the issue path); the issue
   path then runs two passes (snapshot plus communication-out, then main)
   so VLIW read-before-write and same-cycle PUT/GET pairing hold across
   cores. A core in an elided NOP run is issueable without a blocker call
   and skips both passes. *)
let coupled_step t =
  let cores = t.cores in
  let n = Array.length cores in
  let verdict = t.sc_verdict in
  let n_blocked = ref 0 and n_elided = ref 0 in
  let has_d = ref false and has_i = ref false in
  let first_kind = ref Stats.Sync in
  let min_wake = ref max_int in
  for i = 0 to n - 1 do
    let cs = cores.(i) in
    match cs.status with
    | Running ->
      if cs.el_left > 0 && t.group_issues - cs.el_base < cs.el_left then begin
        verdict.(i) <- V_elided;
        incr n_elided
      end
      else begin
        (* A run that ended at the last group issue is settled first. *)
        if cs.el_left > 0 then settle_run t cs t.group_issues;
        t.wake <- max_int;
        match blocker t cs with
        | None -> verdict.(i) <- V_issue
        | Some w ->
          verdict.(i) <- V_blocked;
          t.sc_wait.(i) <- w;
          let k = stall_of_wait w in
          if !n_blocked = 0 then first_kind := k;
          incr n_blocked;
          (match k with
          | Stats.D_stall -> has_d := true
          | Stats.I_stall -> has_i := true
          | Stats.Lat_stall | Stats.Recv_data | Stats.Recv_pred | Stats.Sync ->
            ());
          if t.wake < !min_wake then min_wake := t.wake
      end
    | At_barrier _ | Stuck _ -> verdict.(i) <- V_waiting
    | Asleep | Halted | At_commit | Wait_serial ->
      failwith
        (Printf.sprintf "core %d in unexpected state during coupled mode" cs.id)
  done;
  let k =
    if !n_blocked > 0 then begin
      (* Group stall: nothing issues, so every blocked verdict, every held
         core and the dominant kind stay frozen until the earliest blocked
         core's wake; under fast-forward the stall is one window credited
         once. A core with its own reason records it; the rest record the
         peers' dominant reason (D over I over the first in core order).
         An elided core is held too; a probe gets its elided bundles
         first, so its reports stay in time order. *)
      let k =
        if t.ff_active then begin
          let e = window_end t ~min_wake:!min_wake in
          let k = e - t.now + 1 in
          t.st.coupled_cycles <- t.st.coupled_cycles + (k - 1);
          t.now <- e;
          k
        end
        else 1
      in
      let dominant =
        if !has_d then Stats.D_stall
        else if !has_i then Stats.I_stall
        else !first_kind
      in
      for i = 0 to n - 1 do
        let cs = cores.(i) in
        match verdict.(i) with
        | V_blocked -> credit_wait t cs t.sc_wait.(i) ~k ~upto:t.now
        | V_issue -> credit_lockstep t cs dominant k
        | V_elided ->
          (match t.probe with
          | Some { on_core_cycles = Some _; _ } -> settle_run t cs t.group_issues
          | Some _ | None -> ());
          credit_lockstep t cs dominant k
        | V_waiting -> ()
      done;
      k
    end
    else begin
      t.group_issues <- t.group_issues + 1;
      t.gi_ring.(t.group_issues land t.gi_mask) <- t.now;
      (* An elided core makes progress like any issuing one. *)
      if !n_elided > 0 then t.last_progress <- t.now;
      (* Phases 0 and 1, fused per core: snapshot the core's sources, then
         run its communication-out ops — for all cores before any phase 2,
         so same-cycle PUT/GET and BCAST pairing works regardless of core
         order. Fusing is exact: a snapshot reads only its own core's
         registers, which no communication-out op writes. [cs.dec] is the
         bundle at the core's pc: its blocker call decoded it. *)
      t.issue_next <- 0;
      for i = 0 to n - 1 do
        match verdict.(i) with
        | V_issue ->
          let cs = cores.(i) in
          snapshot_sources cs cs.dec;
          exec_comm_outs t cs cs.dec
        | V_elided | V_blocked | V_waiting -> ()
      done;
      (* Phase 2. *)
      for i = 0 to n - 1 do
        match verdict.(i) with
        | V_issue ->
          let cs = cores.(i) in
          t.issue_next <- i;
          finish_issue t cs cs.dec;
          if t.elide then enter_run t cs
        | V_elided | V_blocked | V_waiting -> ()
      done;
      t.issue_next <- n;
      1
    end
  in
  (* Cores already waiting at the exit barrier count sync stalls. Only
     those waiting when the cycle began: a core that issued the barrier
     bundle this very cycle already recorded that cycle as busy. *)
  for i = 0 to n - 1 do
    match verdict.(i) with
    | V_waiting -> credit_status t cores.(i) k
    | V_issue | V_elided | V_blocked -> ()
  done

(* --- Fault injection ------------------------------------------------------ *)

(* One injection opportunity per cycle: maybe flip a bit somewhere in data
   memory, and maybe freeze each running core for [stall_cycles]. Message
   faults are rolled by the network at each transmission, and spurious TM
   aborts at each commit round. *)
let inject_faults t =
  match t.inj with
  | None -> ()
  | Some f ->
    if Fault.roll_flip f then begin
      let addr = Fault.pick_addr f ~size:(Memory.size t.mem) in
      Memory.corrupt t.mem addr ~flip:(Fault.flip_bit f)
    end;
    Array.iter
      (fun cs ->
        if is_running cs && Fault.roll_stall f then
          cs.stall_until <-
            max cs.stall_until (t.now + t.cfg.fault.Fault.stall_cycles))
      t.cores

(* --- End-of-cycle resolution ---------------------------------------------- *)

(* The end-of-cycle resolution tests below run every cycle: they are
   toplevel recursions over the core array, building no closure and no
   status list. *)
let rec all_at_barrier (cores : core_state array) i =
  i >= Array.length cores
  ||
  match cores.(i).status with
  | At_barrier _ -> all_at_barrier cores (i + 1)
  | Running | Asleep | Halted | At_commit | Wait_serial | Stuck _ -> false

let resolve_mode_barrier t =
  if all_at_barrier t.cores 0 then begin
    let target =
      match t.cores.(0).status with
      | At_barrier m -> m
      | Running | Asleep | Halted | At_commit | Wait_serial | Stuck _ ->
        assert false
    in
    Array.iter
      (fun cs ->
        (match cs.status with
        | At_barrier m when m = target -> ()
        | At_barrier _ ->
          failwith "mode-switch barrier with disagreeing target modes"
        | Running | Asleep | Halted | At_commit | Wait_serial | Stuck _ ->
          assert false);
        cs.status <- Running;
        initiate_fetch t cs)
      t.cores;
    t.mode <- target;
    t.st.mode_switches <- t.st.mode_switches + 1;
    emit t (Mode_change { cycle = t.now; mode = target });
    t.last_progress <- t.now
  end

let rollback t cs =
  match cs.tm_snapshot with
  | None -> failwith (Printf.sprintf "core %d: TM rollback without snapshot" cs.id)
  | Some (regs, pc) ->
    cs.regs <- Array.copy regs;
    cs.ready <- Array.make (Array.length regs) t.now;
    cs.prod <- Array.make (Array.length regs) P_other;
    cs.pc <- pc;
    cs.tm_serial <- true

(* Shared recovery tail for real conflicts and spurious aborts: roll the
   aborted cores back to their chunk snapshots and re-execute them serially
   in core order. *)
let abort_and_serialize t aborted =
  List.iter (fun c -> rollback t t.cores.(c)) aborted;
  (match aborted with
  | [] -> assert false
  | head :: rest ->
    let cs = t.cores.(head) in
    cs.status <- Running;
    initiate_fetch t cs;
    emit t (Serial_start { cycle = t.now; core = head });
    List.iter (fun c -> t.cores.(c).status <- Wait_serial) rest);
  t.serial_queue <- aborted

let release_committed t committed =
  List.iter
    (fun c ->
      let cs = t.cores.(c) in
      cs.status <- Running;
      cs.tm_snapshot <- None;
      initiate_fetch t cs)
    committed

(* A TM round resolves only when EVERY core is in a transaction and waiting
   at TM_COMMIT. This enforces the paper's in-order chunk commit: chunk i+1
   can never commit before chunk i, even if its core raced ahead, so the
   codegen contract is that every DOALL round runs one (possibly empty)
   chunk on every core. *)
let rec all_at_commit t c =
  c >= Array.length t.cores
  ||
  match t.cores.(c).status with
  | At_commit -> Tm.in_tx t.tm ~core:c && all_at_commit t (c + 1)
  | Running | Asleep | Halted | At_barrier _ | Wait_serial | Stuck _ -> false

let resolve_tm_round t =
  (* The participant list is only materialised once a round resolves. *)
  if all_at_commit t 0 then begin
    let participants = List.init t.cfg.n_cores (fun c -> c) in
    t.st.tm_rounds <- t.st.tm_rounds + 1;
    t.last_progress <- t.now;
    let spurious =
      match t.inj with
      | Some f when Fault.roll_tm_abort f ->
        Some (Fault.victim f ~n:t.cfg.n_cores)
      | Some _ | None -> None
    in
    match spurious with
    | Some v -> (
      (* A corrupted speculative chunk is indistinguishable from a real
         conflict to the recovery machinery: commit the clean prefix, abort
         the victim and everything after it, and reuse the serial
         re-execution path. The prefix commit can itself surface a real
         conflict, in which case the earlier core wins. *)
      let prefix = List.filter (fun c -> c < v) participants in
      let first =
        match if prefix = [] then `All_committed else Tm.commit_round t.tm ~cores:prefix with
        | `All_committed -> v
        | `Conflict_at c ->
          t.st.tm_conflicts <- t.st.tm_conflicts + 1;
          c
      in
      List.iter
        (fun c -> if c >= v then Tm.abort t.tm ~core:c)
        participants;
      emit t (Tm_round { cycle = t.now; conflict_at = Some first });
      let committed, aborted = List.partition (fun c -> c < first) participants in
      release_committed t committed;
      abort_and_serialize t aborted)
    | None -> (
      match Tm.commit_round t.tm ~cores:participants with
      | `All_committed ->
        emit t (Tm_round { cycle = t.now; conflict_at = None });
        release_committed t participants
      | `Conflict_at first ->
        t.st.tm_conflicts <- t.st.tm_conflicts + 1;
        emit t (Tm_round { cycle = t.now; conflict_at = Some first });
        let committed, aborted = List.partition (fun c -> c < first) participants in
        release_committed t committed;
        abort_and_serialize t aborted)
  end

let resolve_serial_queue t =
  match t.serial_queue with
  | [] -> ()
  | head :: rest ->
    let cs = t.cores.(head) in
    (* The head finished its serial re-execution when its Tm_commit cleared
       the serial flag. *)
    if
      (not cs.tm_serial)
      && match cs.status with Wait_serial -> false | _ -> true
    then begin
      t.serial_queue <- rest;
      match rest with
      | [] -> ()
      | next :: _ ->
        let ncs = t.cores.(next) in
        ncs.status <- Running;
        initiate_fetch t ncs;
        emit t (Serial_start { cycle = t.now; core = next });
        t.last_progress <- t.now
    end

let rec all_quiescent (cores : core_state array) i =
  i >= Array.length cores
  ||
  match cores.(i).status with
  | Halted | Asleep -> all_quiescent cores (i + 1)
  | Running | At_barrier _ | At_commit | Wait_serial | Stuck _ -> false

let finished t =
  (match t.cores.(0).status with Halted -> true | _ -> false)
  && all_quiescent t.cores 0
  && Net.idle t.net

(* --- Structured watchdog diagnosis ---------------------------------------- *)

let stall_kind_name = Stats.stall_kind_label

let wait_to_string = function
  | W_reg k -> Printf.sprintf "operand in flight (%s)" (stall_kind_name k)
  | W_ifetch -> "instruction fetch in flight"
  | W_dmem -> "memory unit busy"
  | W_btr -> "branch-target register in flight"
  | W_recv { sender; kind } ->
    Printf.sprintf "RECV from core %d (%s): nothing deliverable" sender
      (stall_kind_name kind)
  | W_getb -> "GETB: broadcast not yet visible"
  | W_send_full dst -> Printf.sprintf "SEND: channel to core %d full" dst
  | W_get_latch dir ->
    Printf.sprintf "GET %s with no same-cycle PUT (latch empty or stale)"
      (Inst.dir_name dir)
  | W_put_latch dir ->
    Printf.sprintf "PUT %s into a full latch or off the mesh" (Inst.dir_name dir)
  | W_stall_fault -> "injected stall fault"
  | W_barrier m -> Format.asprintf "at mode barrier -> %a" Inst.pp_mode m
  | W_commit -> "at TM commit, waiting for the round"
  | W_serial -> "waiting for the serial-re-execution token"
  | W_asleep -> "asleep"
  | W_halted -> "halted"

let core_wait t cs =
  match cs.status with
  | Running -> blocker t cs
  | Stuck w -> Some w
  | Asleep -> Some W_asleep
  | Halted -> Some W_halted
  | At_barrier m -> Some (W_barrier m)
  | At_commit -> Some W_commit
  | Wait_serial -> Some W_serial

let diagnose t =
  for i = 0 to Array.length t.cores - 1 do
    settle_run_at t i
  done;
  let d_cores =
    Array.map
      (fun cs ->
        {
          d_core = cs.id;
          d_pc = cs.pc;
          d_wait = core_wait t cs;
          d_bundle =
            Format.asprintf "%a" Bundle.pp
              (if cs.pc < Image.length cs.image then Image.fetch cs.image cs.pc
               else []);
        })
      t.cores
  in
  let d_blame =
    Array.to_list d_cores
    |> List.filter_map (fun d ->
           match d.d_wait with
           | Some ((W_asleep | W_halted) as _w) -> None
           | Some w ->
             Option.map (fun b -> (d.d_core, b)) (blame_of t ~core:d.d_core w)
           | None -> None)
    |> function
    | [] -> None
    | edge :: _ -> Some edge
  in
  {
    d_cycle = t.now;
    d_last_progress = t.last_progress;
    d_mode = t.mode;
    d_cores;
    d_queue = Net.in_flight_summary t.net;
    d_blame;
  }

let pp_diagnosis ppf d =
  Format.fprintf ppf "no progress since cycle %d (now %d), mode %a@,"
    d.d_last_progress d.d_cycle Inst.pp_mode d.d_mode;
  Array.iter
    (fun c ->
      Format.fprintf ppf "  core %d: pc=%d %s bundle={%s}@," c.d_core c.d_pc
        (match c.d_wait with
        | Some w -> wait_to_string w
        | None -> "issueable?")
        c.d_bundle)
    d.d_cores;
  (match d.d_queue with
  | [] -> ()
  | q ->
    Format.fprintf ppf "  in flight:@,";
    List.iter
      (fun (src, dst, descr) ->
        Format.fprintf ppf "    %d -> %d: %s@," src dst descr)
      q);
  match d.d_blame with
  | None -> ()
  | Some (blocked, blamed) ->
    Format.fprintf ppf "  blame: core %d is waiting on core %d@," blocked blamed

let diagnosis_to_string d = Format.asprintf "@[<v>%a@]" pp_diagnosis d

(* --- Run loop -------------------------------------------------------------- *)

let finalize_counters t =
  let ns = Net.stats t.net in
  t.st.net_retries <- ns.Net.retries;
  t.st.net_nacks <- ns.Net.nacks;
  (match t.inj with
  | None -> ()
  | Some f ->
    let c = Fault.counters f in
    t.st.faults_injected <- c.Fault.injected;
    t.st.msgs_dropped <- c.Fault.msgs_dropped;
    t.st.msgs_corrupted <- c.Fault.msgs_corrupted;
    t.st.spurious_aborts <- c.Fault.spurious_aborts;
    t.st.stall_faults <- c.Fault.stall_faults);
  match t.ecc with
  | None -> ()
  | Some e ->
    t.st.ecc_corrected <- Ecc.corrected e;
    t.st.ecc_scrubbed <- Ecc.scrubbed e;
    t.st.flips_masked <- Ecc.masked e

let run t =
  (* Fast-forward needs every skipped core-cycle to be observationally
     dead, so per-cycle randomness (the fault injector) forces the
     cycle-by-cycle path. No probe does: core-cycle reports take the same
     credit, deferred, and [on_window] sees a skipped window whole. *)
  t.ff_active <-
    t.cfg.Config.fast_forward && (match t.inj with None -> true | Some _ -> false);
  t.elide <- t.ff_active && elide_possible t.cfg;
  let outcome = ref None in
  while match !outcome with None -> true | Some _ -> false do
    t.now <- t.now + 1;
    if t.now > t.cfg.max_cycles then outcome := Some Out_of_cycles
    else begin
      let c0 = t.now in
      inject_faults t;
      Net.service t.net ~now:t.now;
      (match t.mode with
      | Inst.Coupled ->
        t.st.coupled_cycles <- t.st.coupled_cycles + 1;
        coupled_step t
      | Inst.Decoupled ->
        t.st.decoupled_cycles <- t.st.decoupled_cycles + 1;
        decoupled_step t);
      resolve_mode_barrier t;
      resolve_tm_round t;
      resolve_serial_queue t;
      (* The step may have fast-forwarded: report the whole covered window.
         [c0 = t.now] when it stepped one cycle. *)
      (match t.probe with
      | Some { on_window = Some f; _ } -> f ~from:c0 ~upto:t.now
      | Some _ | None -> ());
      if t.stop_requested then outcome := Some (Stopped (diagnose t))
      else if finished t then outcome := Some Finished
      else if (match t.inj with Some f -> Fault.exceeded f | None -> false)
      then outcome := Some (Fault_limit (diagnose t))
      else if t.now - t.last_progress > t.cfg.watchdog then
        outcome := Some (Deadlock (diagnose t))
    end
  done;
  settle_all t;
  t.st.cycles <- t.now;
  (* End-of-run scrub: correct any injected flip that was never read, so the
     architectural image (and its checksum) matches the fault-free run. *)
  Memory.scrub t.mem;
  finalize_counters t;
  let outcome = match !outcome with Some o -> o | None -> assert false in
  { outcome; cycles = t.now; checksum = Memory.checksum t.mem }
