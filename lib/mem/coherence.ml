(* Two interchangeable coherence backends behind one timing interface:

   - [Snoop]: the paper's bus-snooped MOESI protocol. Every miss acquires a
     single shared bus (busy-until), snoops every peer L1D, and may be
     served cache-to-cache. Broadcast is free of bookkeeping but the bus is
     a global serialization point — the scaling wall at high core counts.

   - [Directory]: a home-based MESI protocol. Every data line has a home
     bank (line mod n_cores) holding a directory entry — the owner (the
     unique core in M/E, or none) and a sharer bitset. Misses go
     point-to-point to the home, which forwards to the owner (a 3-hop
     indirection) or answers from L2/memory, and invalidations fan out
     only to actual sharers. Serialization is per home bank, so coherence
     bandwidth scales with the core count.

   Both backends drive the same {!Cache} tag arrays (MESI states are the
   MOESI subset that never uses O), fire the same access monitor, and are
   observable through the same [l1d_line_states] / [check_invariants]
   surface — which is what keeps the sanitizer's single-writer oracle and
   the causal profiler protocol-independent. *)

type protocol = Snoop | Directory

let protocol_name = function Snoop -> "snoop" | Directory -> "directory"

let protocol_of_string = function
  | "snoop" -> Ok Snoop
  | "directory" -> Ok Directory
  | s ->
    Error (Printf.sprintf "unknown coherence protocol %S (snoop, directory)" s)

type config = {
  line_words : int;
  l1d_sets : int;
  l1d_ways : int;
  l1i_sets : int;
  l1i_ways : int;
  l2_sets : int;
  l2_ways : int;
  lat_l1 : int;
  lat_l2 : int;
  lat_mem : int;
  lat_c2c : int;
  lat_upgrade : int;
  bus_occupancy : int;
  protocol : protocol;
  dir_lat_lookup : int;
  dir_lat_msg : int;
  dir_lat_fwd : int;
  dir_lat_inv : int;
  dir_occupancy : int;
}

(* 4 kB = 1024 words; 8-word (32 B) lines -> 128 lines; 2-way -> 64 sets.
   128 kB = 32768 words -> 4096 lines; 4-way -> 1024 sets.

   Directory pricing: a miss pays one request message to the home plus the
   directory lookup before any data moves, so its uncontended cost is a
   few cycles above the snooped bus — but a home bank is busy for
   [dir_occupancy] (< [bus_occupancy]) cycles and there are n_cores banks,
   so contended throughput scales where the single bus saturates. *)
let default_config =
  {
    line_words = 8;
    l1d_sets = 64;
    l1d_ways = 2;
    l1i_sets = 64;
    l1i_ways = 2;
    l2_sets = 1024;
    l2_ways = 4;
    lat_l1 = 1;
    lat_l2 = 8;
    lat_mem = 100;
    lat_c2c = 12;
    lat_upgrade = 3;
    bus_occupancy = 4;
    protocol = Snoop;
    dir_lat_lookup = 2;
    dir_lat_msg = 2;
    dir_lat_fwd = 2;
    dir_lat_inv = 4;
    dir_occupancy = 2;
  }

type kind = Ifetch | Dload | Dstore

type stats = {
  mutable accesses : int;
  mutable l1d_misses : int;
  mutable l1i_misses : int;
  mutable l2_misses : int;
  mutable c2c_transfers : int;
  mutable upgrades : int;
  mutable writebacks : int;
  mutable bus_wait_cycles : int;
  mutable dir_lookups : int;
  mutable dir_invalidations : int;
  mutable dir_indirections : int;
}

let fresh_stats () =
  {
    accesses = 0;
    l1d_misses = 0;
    l1i_misses = 0;
    l2_misses = 0;
    c2c_transfers = 0;
    upgrades = 0;
    writebacks = 0;
    bus_wait_cycles = 0;
    dir_lookups = 0;
    dir_invalidations = 0;
    dir_indirections = 0;
  }

(* Sharer bitsets: 62 bits per word so any core count fits (OCaml ints are
   63-bit; the sweeps go to 64 cores). *)
module Bitset = struct
  type t = int array

  let bits_per_word = 62
  let create n = Array.make (max 1 ((n + bits_per_word - 1) / bits_per_word)) 0
  let add t c = t.(c / bits_per_word) <- t.(c / bits_per_word) lor (1 lsl (c mod bits_per_word))

  let remove t c =
    t.(c / bits_per_word) <- t.(c / bits_per_word) land lnot (1 lsl (c mod bits_per_word))

  let mem t c = t.(c / bits_per_word) land (1 lsl (c mod bits_per_word)) <> 0
  let is_empty t = Array.for_all (fun w -> w = 0) t

  let iter f t ~n =
    for c = 0 to n - 1 do
      if mem t c then f c
    done

  let to_list t ~n =
    let acc = ref [] in
    for c = n - 1 downto 0 do
      if mem t c then acc := c :: !acc
    done;
    !acc
end

(* One directory entry per line with at least one cached copy: [sharers]
   is every core whose L1D holds the line (any valid state); [owner] is
   the unique core holding it M/E (always also a sharer), or -1. *)
type dir_entry = { mutable owner : int; sharers : Bitset.t }

type t = {
  cfg : config;
  n_cores : int;
  l1d : Cache.t array;
  l1i : Cache.t array;
  l2 : Cache.t;
  mutable bus_free : int;
  (* Directory backend: per-home-bank busy-until and the line -> entry map.
     Both stay empty under [Snoop]. *)
  home_free : int array;
  dir : (int, dir_entry) Hashtbl.t;
  (* Test backdoor: when set, the directory "forgets" to invalidate the
     highest-numbered remote sharer on the next write — the known-bad
     fixture the sanitizer's single-writer oracle must catch. *)
  mutable stale_sharer_bug : bool;
  per_core : stats array;
  (* Per core: the instruction line of its previous fetch, -1 before the
     first (see [access]). *)
  last_iline : int array;
  (* Runtime sanitizer hook: fired after every access, once the protocol
     state transition for that access has fully landed. [None] (the
     default) keeps the hot path to a single branch. *)
  mutable monitor : (core:int -> completion:int -> kind -> int -> unit) option;
}

let create cfg ~n_cores =
  {
    cfg;
    n_cores;
    l1d = Array.init n_cores (fun _ -> Cache.create ~sets:cfg.l1d_sets ~ways:cfg.l1d_ways);
    l1i = Array.init n_cores (fun _ -> Cache.create ~sets:cfg.l1i_sets ~ways:cfg.l1i_ways);
    l2 = Cache.create ~sets:cfg.l2_sets ~ways:cfg.l2_ways;
    bus_free = 0;
    home_free = Array.make n_cores 0;
    dir = Hashtbl.create 256;
    stale_sharer_bug = false;
    per_core = Array.init n_cores (fun _ -> fresh_stats ());
    last_iline = Array.make n_cores (-1);
    monitor = None;
  }

let set_monitor t f = t.monitor <- Some f

let config t = t.cfg

let stats t ~core = t.per_core.(core)

let total_stats t =
  let acc = fresh_stats () in
  Array.iter
    (fun s ->
      acc.accesses <- acc.accesses + s.accesses;
      acc.l1d_misses <- acc.l1d_misses + s.l1d_misses;
      acc.l1i_misses <- acc.l1i_misses + s.l1i_misses;
      acc.l2_misses <- acc.l2_misses + s.l2_misses;
      acc.c2c_transfers <- acc.c2c_transfers + s.c2c_transfers;
      acc.upgrades <- acc.upgrades + s.upgrades;
      acc.writebacks <- acc.writebacks + s.writebacks;
      acc.bus_wait_cycles <- acc.bus_wait_cycles + s.bus_wait_cycles;
      acc.dir_lookups <- acc.dir_lookups + s.dir_lookups;
      acc.dir_invalidations <- acc.dir_invalidations + s.dir_invalidations;
      acc.dir_indirections <- acc.dir_indirections + s.dir_indirections)
    t.per_core;
  acc

(* Instruction lines live in a per-core address space disjoint from data
   lines; bit 40 marks instruction space, bits 32.. carry the core id. *)
let iline t core addr = (1 lsl 40) lor (core lsl 32) lor (addr / t.cfg.line_words)

let dline t addr = addr / t.cfg.line_words

(* --- Shared L2 --------------------------------------------------------------- *)

(* L2 tracks presence only, for timing: every line enters it in S and no
   transition changes an L2 state, so an L2 victim never needs a
   writeback. *)

(* Serve a line that missed in the L1 from L2 or, past it, main memory
   (the line then enters L2). *)
let l2_or_mem t ~core line =
  let j = Cache.slot t.l2 line in
  if j >= 0 then begin
    Cache.touch_slot t.l2 j;
    t.cfg.lat_l2
  end
  else begin
    let st = t.per_core.(core) in
    st.l2_misses <- st.l2_misses + 1;
    ignore (Cache.insert t.l2 line Cache.S);
    t.cfg.lat_mem
  end

(* A dirty line's data returns to L2: refresh its tag there, or re-insert
   it when L2 dropped it. *)
let l2_writeback t line =
  let j = Cache.slot t.l2 line in
  if j >= 0 then Cache.touch_slot t.l2 j else ignore (Cache.insert t.l2 line Cache.S)

(* --- Snoop backend (the paper's bus-snooped MOESI) ------------------------- *)

(* Acquire the bus at the earliest of [now]/[bus_free]; account wait time. *)
let acquire_bus t ~now ~core =
  let start = Int.max now t.bus_free in
  t.per_core.(core).bus_wait_cycles <-
    t.per_core.(core).bus_wait_cycles + (start - now);
  t.bus_free <- start + t.cfg.bus_occupancy;
  start

(* Fill a line into [cache], writing back a dirty victim to L2 (and keeping
   L2 inclusive enough for timing purposes). *)
let fill t ~core cache line st =
  match Cache.insert cache line st with
  | None -> ()
  | Some (victim, (Cache.M | Cache.O)) ->
    t.per_core.(core).writebacks <- t.per_core.(core).writebacks + 1;
    t.bus_free <- t.bus_free + t.cfg.bus_occupancy;
    l2_writeback t victim
  | Some (_, (Cache.E | Cache.S | Cache.I)) -> ()

(* What a snoop of the peer L1Ds found: a supplier (a core holding the line
   M/O/E), only S copies, or no copy at all. *)
type snoop_result = Supplied | Shared_only | Absent

(* Snoop every other core's L1D for [line]. *)
let snoop t ~core line =
  let r = ref Absent in
  for c = 0 to t.n_cores - 1 do
    if c <> core then
      match Cache.find t.l1d.(c) line with
      | Some (Cache.M | Cache.O | Cache.E) -> r := Supplied
      | Some Cache.S -> (
        match !r with Absent -> r := Shared_only | Supplied | Shared_only -> ())
      | Some Cache.I | None -> ()
  done;
  !r

(* Downgrade remote copies on a read miss: M -> O, E -> S. *)
let downgrade_for_read t ~core line =
  for c = 0 to t.n_cores - 1 do
    if c <> core then begin
      let l1 = t.l1d.(c) in
      let i = Cache.slot l1 line in
      if i >= 0 then
        match Cache.slot_state l1 i with
        | Cache.M -> Cache.set_slot_state l1 i Cache.O
        | Cache.E -> Cache.set_slot_state l1 i Cache.S
        | Cache.O | Cache.S | Cache.I -> ()
    end
  done

(* Invalidate every remote copy on a write (RdX / upgrade). *)
let invalidate_remotes t ~core line =
  for c = 0 to t.n_cores - 1 do
    if c <> core then Cache.invalidate t.l1d.(c) line
  done

(* L1 data-side access; [write] distinguishes store from load. A hit probes
   the L1D once and works on the slot. *)
let access_data t ~now ~core ~write addr =
  let st = t.per_core.(core) in
  st.accesses <- st.accesses + 1;
  let line = dline t addr in
  let l1 = t.l1d.(core) in
  let i = Cache.slot l1 line in
  if i >= 0 then begin
    if not write then begin
      Cache.touch_slot l1 i;
      now + t.cfg.lat_l1
    end
    else
      match Cache.slot_state l1 i with
      | Cache.M | Cache.E ->
        Cache.touch_slot l1 i;
        Cache.set_slot_state l1 i Cache.M;
        now + t.cfg.lat_l1
      | Cache.O | Cache.S | Cache.I ->
        (* Write hit on a shared line: upgrade — invalidate other sharers
           over the bus, no data transfer. *)
        st.upgrades <- st.upgrades + 1;
        let start = acquire_bus t ~now ~core in
        invalidate_remotes t ~core line;
        Cache.touch_slot l1 i;
        Cache.set_slot_state l1 i Cache.M;
        start + t.cfg.lat_upgrade
  end
  else begin
    (* L1 miss: bus transaction; serviced by a peer L1 (cache-to-cache),
       the shared L2, or main memory. *)
    st.l1d_misses <- st.l1d_misses + 1;
    let start = acquire_bus t ~now ~core in
    let found = snoop t ~core line in
    let duration =
      match found with
      | Supplied ->
        st.c2c_transfers <- st.c2c_transfers + 1;
        t.cfg.lat_c2c
      | Shared_only | Absent -> l2_or_mem t ~core line
    in
    let my_state =
      if write then begin
        invalidate_remotes t ~core line;
        Cache.M
      end
      else begin
        downgrade_for_read t ~core line;
        match found with Absent -> Cache.E | Supplied | Shared_only -> Cache.S
      end
    in
    fill t ~core l1 line my_state;
    start + duration
  end

(* [line] is the core's instruction line, already known to differ from the
   one its previous fetch used (see [access]). *)
let access_inst t ~now ~core line =
  let l1 = t.l1i.(core) in
  let i = Cache.slot l1 line in
  if i >= 0 then begin
    Cache.touch_slot l1 i;
    now + t.cfg.lat_l1
  end
  else begin
    let st = t.per_core.(core) in
    st.l1i_misses <- st.l1i_misses + 1;
    let start = acquire_bus t ~now ~core in
    let duration = l2_or_mem t ~core line in
    (* Code is clean; victims need no writeback. *)
    ignore (Cache.insert l1 line Cache.S);
    start + duration
  end

(* --- Directory backend (home-based MESI) ----------------------------------- *)

let home_of t line = line mod t.n_cores

(* Acquire the line's home bank; each bank is its own busy-until resource,
   so contention is per home, not global. Wait time lands in the same
   [bus_wait_cycles] counter (it is interconnect/serialization wait either
   way). *)
let acquire_home t ~now ~core home =
  let start = Int.max now t.home_free.(home) in
  t.per_core.(core).bus_wait_cycles <-
    t.per_core.(core).bus_wait_cycles + (start - now);
  t.home_free.(home) <- start + t.cfg.dir_occupancy;
  start

let dir_entry t line =
  match Hashtbl.find_opt t.dir line with
  | Some e -> e
  | None ->
    let e = { owner = -1; sharers = Bitset.create t.n_cores } in
    Hashtbl.add t.dir line e;
    e

(* Drop [core]'s copy from the line's entry (an eviction notification: the
   directory tracks precise sharers, so silent evictions are not allowed). *)
let dir_forget t ~core line =
  match Hashtbl.find_opt t.dir line with
  | None -> ()
  | Some e ->
    Bitset.remove e.sharers core;
    if e.owner = core then e.owner <- -1;
    if e.owner = -1 && Bitset.is_empty e.sharers then Hashtbl.remove t.dir line

(* Fill into an L1D under the directory: the victim's home is notified
   (precise sharer tracking), and a dirty victim writes back to L2. *)
let dir_fill t ~core line st =
  match Cache.insert t.l1d.(core) line st with
  | None -> ()
  | Some (victim, vstate) -> (
    dir_forget t ~core victim;
    match vstate with
    | Cache.M | Cache.O ->
      t.per_core.(core).writebacks <- t.per_core.(core).writebacks + 1;
      let h = home_of t victim in
      t.home_free.(h) <- t.home_free.(h) + t.cfg.dir_occupancy;
      l2_writeback t victim
    | Cache.E | Cache.S | Cache.I -> ())

(* Invalidate every remote sharer listed in [e]; returns whether any
   remote copy existed (pricing the invalidation round). The stale-sharer
   backdoor skips the highest-numbered remote sharer once — the injected
   protocol bug the sanitizer must catch. *)
let dir_invalidate_sharers t ~core e line =
  let st = t.per_core.(core) in
  let skip =
    if t.stale_sharer_bug then begin
      let victim = ref (-1) in
      Bitset.iter (fun c -> if c <> core then victim := c) e.sharers ~n:t.n_cores;
      if !victim >= 0 then t.stale_sharer_bug <- false;
      !victim
    end
    else -1
  in
  let any = ref false in
  Bitset.iter
    (fun c ->
      if c <> core then begin
        any := true;
        if c <> skip then begin
          st.dir_invalidations <- st.dir_invalidations + 1;
          Cache.invalidate t.l1d.(c) line;
          Bitset.remove e.sharers c;
          if e.owner = c then e.owner <- -1
        end
      end)
    e.sharers ~n:t.n_cores;
  !any

let dir_access_data t ~now ~core ~write addr =
  let st = t.per_core.(core) in
  st.accesses <- st.accesses + 1;
  let line = dline t addr in
  let l1 = t.l1d.(core) in
  let i = Cache.slot l1 line in
  if i >= 0 then begin
    if not write then begin
      Cache.touch_slot l1 i;
      now + t.cfg.lat_l1
    end
    else
      match Cache.slot_state l1 i with
      | Cache.M | Cache.E ->
        Cache.touch_slot l1 i;
        Cache.set_slot_state l1 i Cache.M;
        now + t.cfg.lat_l1
      | Cache.O | Cache.S | Cache.I ->
        (* Write hit on a shared line: upgrade through the home — request
           message, directory lookup, invalidations to the actual sharers
           (no broadcast). *)
        st.upgrades <- st.upgrades + 1;
        let home = home_of t line in
        let start = acquire_home t ~now ~core home in
        st.dir_lookups <- st.dir_lookups + 1;
        let e = dir_entry t line in
        let had_remote = dir_invalidate_sharers t ~core e line in
        e.owner <- core;
        Bitset.add e.sharers core;
        Cache.touch_slot l1 i;
        Cache.set_slot_state l1 i Cache.M;
        start + t.cfg.dir_lat_msg + t.cfg.dir_lat_lookup
        + (if had_remote then t.cfg.dir_lat_inv else 0)
  end
  else begin
    st.l1d_misses <- st.l1d_misses + 1;
    let home = home_of t line in
    let start = acquire_home t ~now ~core home in
    st.dir_lookups <- st.dir_lookups + 1;
    let e = dir_entry t line in
    let remote_owner = if e.owner >= 0 && e.owner <> core then e.owner else -1 in
    let duration =
      if write then begin
        let base =
          if remote_owner >= 0 then begin
            (* 3-hop: home forwards the RdX to the owner, which sends the
               line cache-to-cache and invalidates itself. *)
            st.dir_indirections <- st.dir_indirections + 1;
            st.c2c_transfers <- st.c2c_transfers + 1;
            st.dir_invalidations <- st.dir_invalidations + 1;
            Cache.invalidate t.l1d.(remote_owner) line;
            Bitset.remove e.sharers remote_owner;
            e.owner <- -1;
            t.cfg.dir_lat_fwd + t.cfg.lat_c2c
          end
          else begin
            let had_remote = dir_invalidate_sharers t ~core e line in
            l2_or_mem t ~core line
            + if had_remote then t.cfg.dir_lat_inv else 0
          end
        in
        e.owner <- core;
        Bitset.add e.sharers core;
        dir_fill t ~core line Cache.M;
        t.cfg.dir_lat_msg + t.cfg.dir_lat_lookup + base
      end
      else begin
        let base =
          if remote_owner >= 0 then begin
            (* 3-hop read: owner supplies the line and downgrades to S
               (dirty data refreshes L2 on the way). *)
            st.dir_indirections <- st.dir_indirections + 1;
            st.c2c_transfers <- st.c2c_transfers + 1;
            let owner_l1 = t.l1d.(remote_owner) in
            let r = Cache.slot owner_l1 line in
            if r < 0 then raise Not_found;
            (match Cache.slot_state owner_l1 r with
            | Cache.M ->
              t.per_core.(remote_owner).writebacks <-
                t.per_core.(remote_owner).writebacks + 1;
              l2_writeback t line
            | Cache.O | Cache.E | Cache.S | Cache.I -> ());
            Cache.set_slot_state owner_l1 r Cache.S;
            e.owner <- -1;
            t.cfg.dir_lat_fwd + t.cfg.lat_c2c
          end
          else l2_or_mem t ~core line
        in
        let my_state =
          if e.owner = -1 && Bitset.is_empty e.sharers then begin
            e.owner <- core;
            Cache.E
          end
          else Cache.S
        in
        Bitset.add e.sharers core;
        dir_fill t ~core line my_state;
        t.cfg.dir_lat_msg + t.cfg.dir_lat_lookup + base
      end
    in
    start + duration
  end

(* Instruction lines are per-core private (disjoint address spaces), so
   the directory keeps no entry for them: an ifetch miss is a plain
   point-to-point fetch through the line's home bank. [line] differs from
   the core's previous fetch line, as for [access_inst]. *)
let dir_access_inst t ~now ~core line =
  let l1 = t.l1i.(core) in
  let i = Cache.slot l1 line in
  if i >= 0 then begin
    Cache.touch_slot l1 i;
    now + t.cfg.lat_l1
  end
  else begin
    let st = t.per_core.(core) in
    st.l1i_misses <- st.l1i_misses + 1;
    let start = acquire_home t ~now ~core (home_of t line) in
    let duration = l2_or_mem t ~core line in
    (* Code is clean; victims need no writeback. *)
    ignore (Cache.insert l1 line Cache.S);
    start + t.cfg.dir_lat_msg + duration
  end

(* --- Common surface --------------------------------------------------------- *)

(* The per-core I-line memo: a fetch from the same instruction line as the
   core's previous fetch is an L1I hit that needs no set walk. Exact,
   because only core c's fetches touch [l1i.(c)]: since that previous fetch
   hit or filled the line, it is still present and already the most recent
   way in its set, so the skipped promote would not change the LRU order. *)
let access t ~now ~core kind addr =
  let completion =
    match kind with
    | Ifetch ->
      let line = iline t core addr in
      if line = t.last_iline.(core) then now + t.cfg.lat_l1
      else begin
        t.last_iline.(core) <- line;
        match t.cfg.protocol with
        | Snoop -> access_inst t ~now ~core line
        | Directory -> dir_access_inst t ~now ~core line
      end
    | Dload -> (
      match t.cfg.protocol with
      | Snoop -> access_data t ~now ~core ~write:false addr
      | Directory -> dir_access_data t ~now ~core ~write:false addr)
    | Dstore -> (
      match t.cfg.protocol with
      | Snoop -> access_data t ~now ~core ~write:true addr
      | Directory -> dir_access_data t ~now ~core ~write:true addr)
  in
  (match t.monitor with None -> () | Some f -> f ~core ~completion kind addr);
  completion

let l1d_line_states t ~addr =
  let line = dline t addr in
  let states = ref [] in
  for c = t.n_cores - 1 downto 0 do
    match Cache.find t.l1d.(c) line with
    | Some st -> states := (c, st) :: !states
    | None -> ()
  done;
  (line, !states)

let dir_sharers t ~addr =
  match Hashtbl.find_opt t.dir (dline t addr) with
  | None -> []
  | Some e -> Bitset.to_list e.sharers ~n:t.n_cores

let dir_owner t ~addr =
  match Hashtbl.find_opt t.dir (dline t addr) with
  | None -> None
  | Some e -> if e.owner >= 0 then Some e.owner else None

let test_inject_stale_sharer t = t.stale_sharer_bug <- true

(* Directory bookkeeping must mirror the caches exactly: every valid L1D
   copy is a recorded sharer, every recorded sharer holds a valid copy,
   and M/E copies are the recorded owner. *)
let check_directory t =
  let violation = ref None in
  let fail fmt = Printf.ksprintf (fun msg -> if !violation = None then violation := Some msg) fmt in
  for c = 0 to t.n_cores - 1 do
    List.iter
      (fun (line, st) ->
        match Hashtbl.find_opt t.dir line with
        | None -> fail "line %d: core %d holds a copy the directory forgot" line c
        | Some e ->
          if not (Bitset.mem e.sharers c) then
            fail "line %d: core %d holds a copy but is not a recorded sharer" line c
          else if (st = Cache.M || st = Cache.E) && e.owner <> c then
            fail "line %d: core %d holds %s but the directory owner is %d" line c
              (Format.asprintf "%a" Cache.pp_state st)
              e.owner)
      (Cache.valid_lines t.l1d.(c))
  done;
  Hashtbl.iter
    (fun line e ->
      Bitset.iter
        (fun c ->
          if Cache.find t.l1d.(c) line = None then
            fail "line %d: directory lists core %d as sharer but its cache does not hold it"
              line c)
        e.sharers ~n:t.n_cores)
    t.dir;
  !violation

let single_writer_violation states =
  let count p = List.length (List.filter (fun (_, st) -> p st) states) in
  let m_or_e = count (fun st -> st = Cache.M || st = Cache.E) in
  let o = count (( = ) Cache.O) and others = List.length states - 1 in
  if m_or_e > 1 then Some (Printf.sprintf "%d M/E copies" m_or_e)
  else if m_or_e = 1 && others > 0 then
    Some (Printf.sprintf "M/E copy coexists with %d others" others)
  else if o > 1 then Some (Printf.sprintf "%d owners" o)
  else None

let check_invariants t =
  (* Gather, per line, the (core, state) copies across L1Ds. *)
  let lines : (int, (int * Cache.state) list) Hashtbl.t = Hashtbl.create 64 in
  Array.iteri
    (fun c cache ->
      List.iter
        (fun (line, st) ->
          let cur = Option.value ~default:[] (Hashtbl.find_opt lines line) in
          Hashtbl.replace lines line ((c, st) :: cur))
        (Cache.valid_lines cache))
    t.l1d;
  let violation = ref None in
  Hashtbl.iter
    (fun line states ->
      if !violation = None then
        violation :=
          Option.map
            (Printf.sprintf "line %d: %s" line)
            (single_writer_violation states))
    lines;
  let violation =
    match !violation with
    | Some _ as v -> v
    | None -> if t.cfg.protocol = Directory then check_directory t else None
  in
  match violation with None -> Ok "coherent" | Some msg -> Error msg
