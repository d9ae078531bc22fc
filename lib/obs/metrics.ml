module Stats = Voltron_machine.Stats
module Machine = Voltron_machine.Machine
module Coherence = Voltron_mem.Coherence
module Net = Voltron_net.Operand_network

(* A group is one source record's counters, in its order. The functions
   below are the only place a counter is named; everything else folds
   over the groups. *)
type group = (string * int) list

type t = {
  label : string;
  machine : group;
  cores : group array;
  cache : group;  (** whole-hierarchy totals *)
  per_core_cache : group array;  (** empty when not captured *)
  net : group;
  faults : group;
}

let machine_group (s : Stats.t) =
  [
    ("cycles", s.Stats.cycles);
    ("coupled_cycles", s.Stats.coupled_cycles);
    ("decoupled_cycles", s.Stats.decoupled_cycles);
    ("mode_switches", s.Stats.mode_switches);
    ("spawns", s.Stats.spawns);
    ("tm_rounds", s.Stats.tm_rounds);
    ("tm_conflicts", s.Stats.tm_conflicts);
  ]

let core_group (c : Stats.core) =
  [
    ("busy", c.Stats.busy);
    ("i_stall", c.Stats.i_stall);
    ("d_stall", c.Stats.d_stall);
    ("lat_stall", c.Stats.lat_stall);
    ("recv_data_stall", c.Stats.recv_data_stall);
    ("recv_pred_stall", c.Stats.recv_pred_stall);
    ("sync_stall", c.Stats.sync_stall);
    ("idle", c.Stats.idle);
    ("bundles", c.Stats.bundles);
    ("ops", c.Stats.ops);
    ("ops_mem", c.Stats.ops_mem);
    ("ops_comm", c.Stats.ops_comm);
    ("ops_mul_div", c.Stats.ops_mul_div);
  ]

let cache_group (s : Coherence.stats) =
  [
    ("accesses", s.Coherence.accesses);
    ("l1d_misses", s.Coherence.l1d_misses);
    ("l1i_misses", s.Coherence.l1i_misses);
    ("l2_misses", s.Coherence.l2_misses);
    ("c2c_transfers", s.Coherence.c2c_transfers);
    ("upgrades", s.Coherence.upgrades);
    ("writebacks", s.Coherence.writebacks);
    ("bus_wait_cycles", s.Coherence.bus_wait_cycles);
    ("dir_lookups", s.Coherence.dir_lookups);
    ("dir_invalidations", s.Coherence.dir_invalidations);
    ("dir_indirections", s.Coherence.dir_indirections);
  ]

let net_group (s : Net.stats) =
  [
    ("msgs_sent", s.Net.msgs_sent);
    ("total_latency", s.Net.total_latency);
    ("max_occupancy", s.Net.max_occupancy);
    ("retries", s.Net.retries);
    ("nacks", s.Net.nacks);
  ]

let fault_group (s : Stats.t) =
  [
    ("faults_injected", s.Stats.faults_injected);
    ("msgs_dropped", s.Stats.msgs_dropped);
    ("msgs_corrupted", s.Stats.msgs_corrupted);
    ("net_retries", s.Stats.net_retries);
    ("net_nacks", s.Stats.net_nacks);
    ("ecc_corrected", s.Stats.ecc_corrected);
    ("ecc_scrubbed", s.Stats.ecc_scrubbed);
    ("flips_masked", s.Stats.flips_masked);
    ("spurious_aborts", s.Stats.spurious_aborts);
    ("stall_faults", s.Stats.stall_faults);
  ]

let with_cycles cycles t =
  {
    t with
    machine =
      List.map (fun (k, v) -> (k, if k = "cycles" then cycles else v)) t.machine;
  }

let of_stats ?(label = "") ?cycles ~coherence ?(per_core_coherence = [||])
    ~network (s : Stats.t) =
  let t =
    {
      label;
      machine = machine_group s;
      cores = Array.map core_group s.Stats.per_core;
      cache = cache_group coherence;
      per_core_cache = Array.map cache_group per_core_coherence;
      net = net_group network;
      faults = fault_group s;
    }
  in
  match cycles with Some c -> with_cycles c t | None -> t

let snapshot ?label m =
  let stats = Machine.stats m in
  let coh = Machine.coherence m in
  let per_core_coherence =
    Array.init stats.Stats.n_cores (fun core -> Coherence.stats coh ~core)
  in
  of_stats ?label ~cycles:(Machine.now m)
    ~coherence:(Coherence.total_stats coh) ~per_core_coherence
    ~network:(Net.stats (Machine.network m))
    stats

(* Combine two readings of one group counter by counter. *)
let zip f a b = List.map2 (fun (k, x) (_, y) -> (k, f k x y)) a b

let delta ~before ~after =
  if Array.length before.cores <> Array.length after.cores then
    invalid_arg "Metrics.delta: core count mismatch";
  let sub = zip (fun k a b -> if k = "max_occupancy" then b else b - a) in
  {
    label = after.label;
    machine = sub before.machine after.machine;
    cores = Array.map2 sub before.cores after.cores;
    cache = sub before.cache after.cache;
    per_core_cache =
      (if Array.length before.per_core_cache = Array.length after.per_core_cache
       then Array.map2 sub before.per_core_cache after.per_core_cache
       else after.per_core_cache);
    net = sub before.net after.net;
    faults = sub before.faults after.faults;
  }

let counters t =
  let summed =
    Array.fold_left (zip (fun _ a b -> a + b)) t.cores.(0)
      (Array.sub t.cores 1 (Array.length t.cores - 1))
  in
  let flat =
    t.machine @ summed
    @ List.map
        (fun (k, v) -> ((if k = "accesses" then "cache_accesses" else k), v))
        t.cache
    @ List.map
        (fun (k, v) -> ((if k = "msgs_sent" then k else "net_" ^ k), v))
        t.net
  in
  (* The fault group's net_retries/net_nacks are the network's own. *)
  flat @ List.filter (fun (k, _) -> not (List.mem_assoc k flat)) t.faults

let gauges t =
  let c = counters t in
  let per den num =
    let num = List.assoc num c in
    if den = 0 then 0. else float_of_int num /. float_of_int den
  in
  let core_cycles = List.assoc "cycles" c * Array.length t.cores in
  let accesses = List.assoc "cache_accesses" c in
  [
    ("ipc", per core_cycles "ops");
    ("bundle_ipc", per core_cycles "bundles");
    ("occupancy", per core_cycles "busy");
    ("l1d_miss_rate", per accesses "l1d_misses");
    ("l1i_miss_rate", per accesses "l1i_misses");
    ("l2_miss_rate", per accesses "l2_misses");
    ("avg_net_latency", per (List.assoc "msgs_sent" c) "net_total_latency");
    ("avg_tm_conflict_rate", per (List.assoc "tm_rounds" c) "tm_conflicts");
  ]

let find name t =
  match List.assoc_opt name (counters t) with
  | Some i -> Some (float_of_int i)
  | None -> List.assoc_opt name (gauges t)

let pp ppf t =
  Format.fprintf ppf "%s"
    (Tabulate.kv
       (List.map (fun (k, v) -> (k, string_of_int v)) (counters t)
       @ List.map
           (fun (k, v) -> (k, Voltron_util.Table.cell_f v))
           (gauges t)))

let to_json t =
  let obj g = Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) g) in
  let objs a = Json.List (Array.to_list (Array.map obj a)) in
  Json.Obj
    [
      ("label", Json.Str t.label);
      ("machine", obj t.machine);
      ("cores", objs t.cores);
      ("cache", obj t.cache);
      ("per_core_cache", objs t.per_core_cache);
      ("net", obj t.net);
      ("faults", obj t.faults);
      ("gauges", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) (gauges t)));
    ]
