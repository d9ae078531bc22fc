type core = {
  mutable busy : int;
  mutable i_stall : int;
  mutable d_stall : int;
  mutable lat_stall : int;
  mutable recv_data_stall : int;
  mutable recv_pred_stall : int;
  mutable sync_stall : int;
  mutable idle : int;
  mutable bundles : int;
  mutable ops : int;
  mutable ops_mem : int;
  mutable ops_comm : int;
  mutable ops_mul_div : int;
}

type t = {
  n_cores : int;
  per_core : core array;
  mutable cycles : int;
  mutable coupled_cycles : int;
  mutable decoupled_cycles : int;
  mutable mode_switches : int;
  mutable spawns : int;
  mutable tm_rounds : int;
  mutable tm_conflicts : int;
  mutable faults_injected : int;
  mutable msgs_dropped : int;
  mutable msgs_corrupted : int;
  mutable net_retries : int;
  mutable net_nacks : int;
  mutable ecc_corrected : int;
  mutable ecc_scrubbed : int;
  mutable flips_masked : int;
  mutable spurious_aborts : int;
  mutable stall_faults : int;
}

type stall_kind =
  | I_stall
  | D_stall
  | Lat_stall
  | Recv_data
  | Recv_pred
  | Sync

let fresh_core () =
  {
    busy = 0;
    i_stall = 0;
    d_stall = 0;
    lat_stall = 0;
    recv_data_stall = 0;
    recv_pred_stall = 0;
    sync_stall = 0;
    idle = 0;
    bundles = 0;
    ops = 0;
    ops_mem = 0;
    ops_comm = 0;
    ops_mul_div = 0;
  }

let create ~n_cores =
  {
    n_cores;
    per_core = Array.init n_cores (fun _ -> fresh_core ());
    cycles = 0;
    coupled_cycles = 0;
    decoupled_cycles = 0;
    mode_switches = 0;
    spawns = 0;
    tm_rounds = 0;
    tm_conflicts = 0;
    faults_injected = 0;
    msgs_dropped = 0;
    msgs_corrupted = 0;
    net_retries = 0;
    net_nacks = 0;
    ecc_corrected = 0;
    ecc_scrubbed = 0;
    flips_masked = 0;
    spurious_aborts = 0;
    stall_faults = 0;
  }

let add_stall t ~core kind k =
  let c = t.per_core.(core) in
  match kind with
  | I_stall -> c.i_stall <- c.i_stall + k
  | D_stall -> c.d_stall <- c.d_stall + k
  | Lat_stall -> c.lat_stall <- c.lat_stall + k
  | Recv_data -> c.recv_data_stall <- c.recv_data_stall + k
  | Recv_pred -> c.recv_pred_stall <- c.recv_pred_stall + k
  | Sync -> c.sync_stall <- c.sync_stall + k

let core t i = t.per_core.(i)

let total_stalls c =
  c.i_stall + c.d_stall + c.lat_stall + c.recv_data_stall + c.recv_pred_stall
  + c.sync_stall

let stall_of c = function
  | I_stall -> c.i_stall
  | D_stall -> c.d_stall
  | Lat_stall -> c.lat_stall
  | Recv_data -> c.recv_data_stall
  | Recv_pred -> c.recv_pred_stall
  | Sync -> c.sync_stall

let all_stall_kinds =
  [ I_stall; D_stall; Lat_stall; Recv_data; Recv_pred; Sync ]

let n_stall_kinds = List.length all_stall_kinds

let stall_kind_index = function
  | I_stall -> 0
  | D_stall -> 1
  | Lat_stall -> 2
  | Recv_data -> 3
  | Recv_pred -> 4
  | Sync -> 5

let stall_kind_label = function
  | I_stall -> "I-stall"
  | D_stall -> "D-stall"
  | Lat_stall -> "latency"
  | Recv_data -> "recv-data"
  | Recv_pred -> "recv-pred"
  | Sync -> "sync"

let rate num den = if den = 0 then 0. else float_of_int num /. float_of_int den

let pp_summary ?coherence ?network ppf t =
  Format.fprintf ppf "cycles=%d coupled=%d decoupled=%d switches=%d spawns=%d@."
    t.cycles t.coupled_cycles t.decoupled_cycles t.mode_switches t.spawns;
  if t.faults_injected > 0 then
    Format.fprintf ppf
      "  faults=%d drops=%d corrupts=%d retries=%d nacks=%d ecc=%d/%d \
       masked=%d tm-aborts=%d stalls=%d@."
      t.faults_injected t.msgs_dropped t.msgs_corrupted t.net_retries
      t.net_nacks t.ecc_corrected t.ecc_scrubbed t.flips_masked
      t.spurious_aborts t.stall_faults;
  Array.iteri
    (fun i c ->
      Format.fprintf ppf
        "  core %d: busy=%d I=%d D=%d lat=%d recvD=%d recvP=%d sync=%d idle=%d ops=%d@."
        i c.busy c.i_stall c.d_stall c.lat_stall c.recv_data_stall
        c.recv_pred_stall c.sync_stall c.idle c.ops)
    t.per_core;
  (match coherence with
  | None -> ()
  | Some (cs : Voltron_mem.Coherence.stats) ->
    Format.fprintf ppf
      "  caches: accesses=%d l1d-miss=%d (%.2f%%) l1i-miss=%d (%.2f%%) \
       l2-miss=%d (%.2f%%) c2c=%d upgrades=%d writebacks=%d bus-wait=%d@."
      cs.Voltron_mem.Coherence.accesses cs.Voltron_mem.Coherence.l1d_misses
      (100. *. rate cs.Voltron_mem.Coherence.l1d_misses cs.Voltron_mem.Coherence.accesses)
      cs.Voltron_mem.Coherence.l1i_misses
      (100. *. rate cs.Voltron_mem.Coherence.l1i_misses cs.Voltron_mem.Coherence.accesses)
      cs.Voltron_mem.Coherence.l2_misses
      (100. *. rate cs.Voltron_mem.Coherence.l2_misses cs.Voltron_mem.Coherence.accesses)
      cs.Voltron_mem.Coherence.c2c_transfers cs.Voltron_mem.Coherence.upgrades
      cs.Voltron_mem.Coherence.writebacks cs.Voltron_mem.Coherence.bus_wait_cycles;
    (* Directory-backend counters: only the directory protocol produces
       them, so the snoop summary line stays byte-identical. *)
    if
      cs.Voltron_mem.Coherence.dir_lookups > 0
      || cs.Voltron_mem.Coherence.dir_invalidations > 0
      || cs.Voltron_mem.Coherence.dir_indirections > 0
    then
      Format.fprintf ppf
        "  directory: lookups=%d invalidations=%d indirections=%d@."
        cs.Voltron_mem.Coherence.dir_lookups
        cs.Voltron_mem.Coherence.dir_invalidations
        cs.Voltron_mem.Coherence.dir_indirections);
  match network with
  | None -> ()
  | Some (ns : Voltron_net.Operand_network.stats) ->
    Format.fprintf ppf
      "  network: msgs=%d avg-latency=%.2f max-occupancy=%d retries=%d nacks=%d@."
      ns.Voltron_net.Operand_network.msgs_sent
      (rate ns.Voltron_net.Operand_network.total_latency
         ns.Voltron_net.Operand_network.msgs_sent)
      ns.Voltron_net.Operand_network.max_occupancy
      ns.Voltron_net.Operand_network.retries ns.Voltron_net.Operand_network.nacks
