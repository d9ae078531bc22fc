(** Coherent cache hierarchy, timing model — two interchangeable backends.

    Matches the paper's memory system (§3, §5.1): per-core private L1
    instruction and data caches backed by a shared (banked) L2 and main
    memory. The model is tag/state + latency only; architectural data lives
    in {!Memory}.

    Coherence is a config choice ([protocol]):

    - [Snoop] (the default, the paper's setup): bus-snooped MOESI. A miss
      acquires a single busy-until bus, snoops every peer L1D and may be
      served cache-to-cache — cores contend for one global resource.
    - [Directory]: home-based MESI. Every data line has a home bank
      ([line mod n_cores]) holding its owner and a sharer bitset; misses
      go point-to-point to the home, which forwards to the owner (a 3-hop
      indirection) or serves from L2/memory, and invalidations fan out
      only to recorded sharers. Each home bank is its own busy-until
      resource, so coherence bandwidth scales with the core count.

    Both backends drive the same {!Cache} tag arrays (the directory's MESI
    states are the MOESI subset that never uses O), fire the same access
    monitor, and expose the same [l1d_line_states]/[check_invariants]
    introspection — the sanitizer's single-writer oracle and the causal
    profiler's fill-completion hook are protocol-independent by
    construction.

    Instruction fetches occupy a per-core address space disjoint from data
    (each core's code is its own memory space, §3.2). *)

type protocol = Snoop | Directory

val protocol_name : protocol -> string
(** ["snoop"] / ["directory"]. *)

val protocol_of_string : string -> (protocol, string) result

type config = {
  line_words : int;  (** words per cache line *)
  l1d_sets : int;
  l1d_ways : int;
  l1i_sets : int;
  l1i_ways : int;
  l2_sets : int;
  l2_ways : int;
  lat_l1 : int;  (** L1 hit latency, cycles *)
  lat_l2 : int;  (** miss served by L2 *)
  lat_mem : int;  (** miss served by main memory *)
  lat_c2c : int;  (** miss served cache-to-cache by a peer L1 *)
  lat_upgrade : int;  (** write hit on a shared line (invalidation round) *)
  bus_occupancy : int;  (** [Snoop]: cycles the bus stays busy per transaction *)
  protocol : protocol;  (** which backend services misses *)
  dir_lat_lookup : int;  (** [Directory]: directory access at the home bank *)
  dir_lat_msg : int;  (** [Directory]: one-way requester->home message *)
  dir_lat_fwd : int;  (** [Directory]: home->owner forward hop (indirection) *)
  dir_lat_inv : int;  (** [Directory]: invalidation round to sharers (with acks) *)
  dir_occupancy : int;  (** [Directory]: cycles a home bank stays busy per transaction *)
}

val default_config : config
(** The paper's setup: 4 kB 2-way L1 I and D, 128 kB 4-way shared L2,
    32-byte lines, [protocol = Snoop]. The directory pricing defaults make
    an uncontended directory miss a few cycles dearer than a snooped one
    (message + lookup), while a home bank's occupancy is half the bus's —
    the crossover ingredients. *)

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
      (** serialization wait: bus acquisition ([Snoop]) or home-bank
          acquisition ([Directory]) *)
  mutable dir_lookups : int;  (** [Directory]: home directory accesses *)
  mutable dir_invalidations : int;
      (** [Directory]: per-sharer invalidation messages sent *)
  mutable dir_indirections : int;
      (** [Directory]: 3-hop requester->home->owner forwards *)
}

type t

val create : config -> n_cores:int -> t
(** Every cache is a flat {!Cache} tag store (three arrays each), so
    building a hierarchy is a few dozen allocations: 19,026 words for the
    default geometry at 8 cores, most of it the 4,096-slot L2. *)

val config : t -> config

val access : t -> now:int -> core:int -> kind -> int -> int
(** [access t ~now ~core kind addr] simulates the access and returns its
    completion time (strictly greater than [now] only when it misses or
    needs the bus/home bank; an L1 hit completes at [now + lat_l1]).
    [addr] is a word address: data addresses for [Dload]/[Dstore], the
    core's bundle address for [Ifetch]. All state (MOESI/MESI, LRU, L2,
    bus or home-bank busy time, directory entries) is updated.

    Cost: an L1 hit probes its set once. A fetch from the same instruction
    line as the core's previous fetch does not probe at all — only that
    core's fetches touch its L1I, so the line is still present and already
    most recent in its set. Misses add the snoop of every peer L1D
    ([Snoop]) or the home's sharer set ([Directory]) and an L2 probe. *)

val stats : t -> core:int -> stats
val total_stats : t -> stats

val set_monitor : t -> (core:int -> completion:int -> kind -> int -> unit) -> unit
(** The one access monitor slot, which a machine owns (its probes'
    [on_access]); a later call replaces it. Called after every {!access},
    once the coherence transition for that access has fully landed —
    under either backend — with the accessing core, the cycle the access
    completes (the fill time — [completion - now] above the L1 hit latency
    marks a miss-fill edge), the access kind and the word address. Passive
    — the callback must not mutate the hierarchy. Unset (the default), the
    hot path pays a single branch.

    The machine's NOP-run elision (fast-forward on, coupled mode) skips
    the fetches of the empty bundles it elides, so the monitor is not told
    of them. Each is a fetch from the I-line of the core's previous fetch
    — a memo hit that changes no cache state and no counter. *)

val l1d_line_states : t -> addr:int -> int * (int * Cache.state) list
(** The data line holding word [addr], and every core whose L1D currently
    holds that line with its state — the per-line view the sanitizer
    checks the single-writer/multiple-reader invariant against after each
    access. Protocol-independent (MESI states are a MOESI subset). Does
    not touch LRU. *)

val dir_sharers : t -> addr:int -> int list
(** [Directory] introspection (tests): the recorded sharer set for the
    data line holding word [addr], ascending; [[]] when the directory has
    no entry. Always [[]] under [Snoop]. *)

val dir_owner : t -> addr:int -> int option
(** [Directory] introspection (tests): the recorded owner (the core
    holding the line M/E), if any. *)

val test_inject_stale_sharer : t -> unit
(** Test backdoor: arm a one-shot protocol bug — the directory skips
    invalidating the highest-numbered remote sharer on the next write, so
    a stale S copy coexists with the writer's M copy. Exists to prove the
    sanitizer's single-writer oracle catches real directory bugs; never
    set in real runs. *)

val single_writer_violation : (int * Cache.state) list -> string option
(** The per-line single-writer/multiple-reader rule over a line's
    (core, state) copies, as {!l1d_line_states} gives them: at most one
    M/E copy, and then no other sharer; at most one O copy. [Some] names
    the first clause broken. Stated over cache states alone, so it holds
    for both backends; {!check_invariants} and the sanitizer share it. *)

val check_invariants : t -> (string, string) result
(** Coherence safety over every line: at most one cache in M or E and then
    no other sharer; at most one owner (O); an O line may coexist only
    with S copies. Under [Directory], additionally checks
    directory-cache agreement: every valid L1D copy is a recorded sharer,
    every recorded sharer holds a valid copy, and M/E copies are the
    recorded owner. [Error] describes the first violation. *)
