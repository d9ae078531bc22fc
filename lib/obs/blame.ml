module Machine = Voltron_machine.Machine
module Config = Voltron_machine.Config
module Stats = Voltron_machine.Stats
module Net = Voltron_net.Operand_network
module Mesh = Voltron_net.Mesh
module Tm = Voltron_mem.Tm
module Driver = Voltron_compiler.Driver
module Program = Voltron_isa.Program
module Inst = Voltron_isa.Inst
module Vec = Voltron_util.Vec

type kind =
  | K_compute
  | K_redo
  | K_net_wait
  | K_spawn
  | K_bcast_wait
  | K_latch_wait
  | K_backpressure
  | K_miss_fill
  | K_ifetch
  | K_operand
  | K_tm_commit
  | K_tm_serial
  | K_barrier
  | K_lockstep
  | K_fault
  | K_drain

let kind_label = function
  | K_compute -> "compute"
  | K_redo -> "tm-redo"
  | K_net_wait -> "net-wait"
  | K_spawn -> "spawn-wait"
  | K_bcast_wait -> "bcast-wait"
  | K_latch_wait -> "latch-wait"
  | K_backpressure -> "backpressure"
  | K_miss_fill -> "miss-fill"
  | K_ifetch -> "ifetch"
  | K_operand -> "operand"
  | K_tm_commit -> "tm-commit"
  | K_tm_serial -> "tm-serial"
  | K_barrier -> "barrier"
  | K_lockstep -> "lockstep"
  | K_fault -> "fault"
  | K_drain -> "drain"

let kind_of_wait : Machine.wait -> kind = function
  | Machine.W_reg Stats.D_stall -> K_miss_fill
  | Machine.W_reg Stats.I_stall -> K_ifetch
  | Machine.W_reg _ -> K_operand
  | Machine.W_ifetch -> K_ifetch
  | Machine.W_dmem -> K_miss_fill
  | Machine.W_btr -> K_operand
  | Machine.W_recv _ -> K_net_wait
  | Machine.W_getb -> K_bcast_wait
  | Machine.W_send_full _ -> K_backpressure
  | Machine.W_get_latch _ | Machine.W_put_latch _ -> K_latch_wait
  | Machine.W_stall_fault -> K_fault
  | Machine.W_barrier _ -> K_barrier
  | Machine.W_commit -> K_tm_commit
  | Machine.W_serial -> K_tm_serial
  | Machine.W_asleep -> K_spawn
  | Machine.W_halted -> K_drain

type interval = {
  iv_kind : kind;
  iv_blame : int;
  iv_region : int;
  iv_mode : int;
  iv_redo : bool;
  iv_from : int;
  mutable iv_to : int;
}

type delivery = { dv_cycle : int; dv_src : int; dv_sent : int; dv_start : bool }

type t = {
  machine : Machine.t;
  n_cores : int;
  names : string array;
  region_of : core:int -> pc:int -> int;
  ivs : interval Vec.t array;  (** per core, in time order, tiling the run *)
  dvs : delivery Vec.t array;  (** per destination core, in delivery order *)
  tm : int array array;  (** per region: TM begins, commits, aborts *)
  hop_cost : int;
  hops : int -> int -> int;
}

let mode_index = function Inst.Coupled -> 0 | Inst.Decoupled -> 1

let record t ~core ~pc ~k ~upto ~redo (ev : Machine.blame_event) =
  let from = upto - k + 1 in
  let kind, blame =
    match ev with
    | Machine.Blame_busy -> ((if redo then K_redo else K_compute), -1)
    | Machine.Blame_lockstep _ -> (K_lockstep, -1)
    | Machine.Blame_wait w ->
      ( kind_of_wait w,
        match Machine.blame_of t.machine ~core w with Some c -> c | None -> -1 )
  in
  let region = t.region_of ~core ~pc in
  let mode = mode_index (Machine.mode t.machine) in
  let v = t.ivs.(core) in
  match Vec.last v with
  | Some last
    when last.iv_to = from - 1
         && last.iv_kind == kind
         && last.iv_blame = blame
         && last.iv_region = region
         && last.iv_mode = mode
         && last.iv_redo = redo ->
    last.iv_to <- upto
  | _ ->
    Vec.push v
      {
        iv_kind = kind;
        iv_blame = blame;
        iv_region = region;
        iv_mode = mode;
        iv_redo = redo;
        iv_from = from;
        iv_to = upto;
      }

let attach m (compiled : Driver.compiled) =
  let names, _, region_of = Region_profile.lookup compiled in
  let n_cores = Program.n_cores compiled.Driver.executable in
  let t =
    {
      machine = m;
      n_cores;
      names;
      region_of;
      ivs = Array.init n_cores (fun _ -> Vec.create ());
      dvs = Array.init n_cores (fun _ -> Vec.create ());
      tm = Array.init (Array.length names) (fun _ -> Array.make 3 0);
      hop_cost = (Machine.config m).Config.net_hop_cost;
      hops = Mesh.hops (Net.mesh (Machine.network m));
    }
  in
  let count core i =
    let c = t.tm.(t.region_of ~core ~pc:(Machine.pc m ~core)) in
    c.(i) <- c.(i) + 1
  in
  Machine.attach_probe m
    {
      Machine.null_probe with
      on_core_cycles = Some (record t);
      on_net =
        Some
          (function
          | Net.Ev_deliver { ev_src; ev_dst; ev_payload; ev_sent; ev_seq = _ } ->
            Vec.push t.dvs.(ev_dst)
              {
                dv_cycle = Machine.now m;
                dv_src = ev_src;
                dv_sent = ev_sent;
                dv_start =
                  (match ev_payload with Net.Start _ -> true | Net.Value _ -> false);
              }
          | Net.Ev_send _ | Net.Ev_put _ | Net.Ev_get _ -> ());
      on_tm =
        Some
          (fun ~core action ~addr:_ ~value:_ ->
            match action with
            | Tm.Begin -> count core 0
            | Tm.Commit -> count core 1
            | Tm.Abort -> count core 2
            | Tm.Read | Tm.Read_tx | Tm.Write | Tm.Write_tx -> ());
    };
  t

let n_cores t = t.n_cores
let cycles t = Machine.now t.machine
let region_names t = t.names
let hop_cost t = t.hop_cost
let hops t = t.hops
let intervals t core = Vec.to_array t.ivs.(core)
let deliveries t core = Vec.to_array t.dvs.(core)

let coverage t =
  let total = cycles t in
  let problem = ref None in
  for c = 0 to t.n_cores - 1 do
    if !problem = None then begin
      let at = ref 1 in
      Vec.iter
        (fun iv ->
          if !problem = None then
            if iv.iv_from <> !at then
              problem :=
                Some
                  (Printf.sprintf "core %d: gap [%d..%d] before interval" c !at
                     (iv.iv_from - 1))
            else at := iv.iv_to + 1)
        t.ivs.(c);
      if !problem = None && !at <> total + 1 then
        problem :=
          Some (Printf.sprintf "core %d: tail gap [%d..%d]" c !at total)
    end
  done;
  match !problem with None -> Ok () | Some p -> Error p

let wait_matrix t =
  let m = Array.make_matrix t.n_cores t.n_cores 0 in
  Array.iteri
    (fun c v ->
      Vec.iter
        (fun iv ->
          match iv.iv_kind with
          | K_net_wait | K_backpressure | K_latch_wait | K_bcast_wait
          | K_spawn ->
            if iv.iv_blame >= 0 && iv.iv_blame < t.n_cores then
              m.(c).(iv.iv_blame) <-
                m.(c).(iv.iv_blame) + (iv.iv_to - iv.iv_from + 1)
          | _ -> ())
        v)
    t.ivs;
  m

let msgs_matrix t =
  let m = Array.make_matrix t.n_cores t.n_cores 0 in
  Array.iteri
    (fun dst v ->
      Vec.iter (fun d -> m.(d.dv_src).(dst) <- m.(d.dv_src).(dst) + 1) v)
    t.dvs;
  m

let tm_regions t =
  let out = ref [] in
  for r = Array.length t.tm - 1 downto 0 do
    let c = t.tm.(r) in
    if c.(0) > 0 || c.(2) > 0 then out := (t.names.(r), c.(0), c.(1), c.(2)) :: !out
  done;
  !out
