(* Tests for the memory subsystem: flat memory, cache directory (LRU,
   eviction), MOESI coherence (state transitions + safety property under
   random traffic), latency ordering, and transactional memory
   (isolation, commit order, conflicts, serialisability). *)

module Memory = Voltron_mem.Memory
module Cache = Voltron_mem.Cache
module Coherence = Voltron_mem.Coherence
module Tm = Voltron_mem.Tm

(* --- Memory ----------------------------------------------------------------- *)

let test_memory_rw () =
  let m = Memory.create 16 in
  Memory.write m 3 42;
  Alcotest.(check int) "read back" 42 (Memory.read m 3);
  Alcotest.check_raises "oob" (Invalid_argument "Memory.read: address 16 outside [0,16)")
    (fun () -> ignore (Memory.read m 16))

let test_memory_snapshot () =
  let m = Memory.create 8 in
  Memory.write m 0 1;
  let snap = Memory.snapshot m in
  Memory.write m 0 2;
  Memory.restore m snap;
  Alcotest.(check int) "restored" 1 (Memory.read m 0)

let test_checksum_prefix () =
  let a = Memory.create 8 and b = Memory.create 12 in
  Memory.write a 2 7;
  Memory.write b 2 7;
  Memory.write b 10 99 (* beyond the compared prefix *);
  Alcotest.(check int) "prefix checksums equal" (Memory.checksum_prefix a 8)
    (Memory.checksum_prefix b 8);
  Alcotest.(check bool) "full checksums differ" true
    (Memory.checksum a <> Memory.checksum b)

(* --- Cache directory --------------------------------------------------------- *)

let test_cache_insert_find () =
  let c = Cache.create ~sets:4 ~ways:2 in
  Alcotest.(check bool) "miss" true (Cache.find c 5 = None);
  ignore (Cache.insert c 5 Cache.E);
  Alcotest.(check bool) "hit E" true (Cache.find c 5 = Some Cache.E);
  Cache.set_state c 5 Cache.M;
  Alcotest.(check bool) "now M" true (Cache.find c 5 = Some Cache.M)

let test_cache_lru_eviction () =
  let c = Cache.create ~sets:1 ~ways:2 in
  ignore (Cache.insert c 0 Cache.S);
  ignore (Cache.insert c 1 Cache.S);
  Cache.touch c 0 (* 1 becomes LRU *);
  let victim = Cache.insert c 2 Cache.M in
  Alcotest.(check bool) "evicted LRU line 1" true (victim = Some (1, Cache.S));
  Alcotest.(check bool) "0 still present" true (Cache.find c 0 <> None)

let test_cache_invalidate () =
  let c = Cache.create ~sets:2 ~ways:1 in
  ignore (Cache.insert c 4 Cache.M);
  Cache.invalidate c 4;
  Alcotest.(check bool) "gone" true (Cache.find c 4 = None);
  Cache.invalidate c 4 (* idempotent *)

(* Reference model of the cache directory's semantics, kept deliberately
   naive: each set is an array of ways plus a recency list of way indices,
   most recent first (initially way 0 first). A fill takes the lowest
   invalid way, otherwise the way at the tail of the recency list. *)
module Cache_model = struct
  type set = { ways : (int * Cache.state) array; mutable recency : int list }
  type t = set array

  let create ~sets ~ways : t =
    Array.init sets (fun _ ->
        { ways = Array.make ways (0, Cache.I); recency = List.init ways Fun.id })

  let set_of t line = t.(line mod Array.length t)

  let way_of set line =
    let found = ref None in
    Array.iteri
      (fun w (l, st) ->
        if !found = None && l = line && st <> Cache.I then found := Some w)
      set.ways;
    !found

  let promote set w = set.recency <- w :: List.filter (fun x -> x <> w) set.recency

  let find t line =
    let set = set_of t line in
    Option.map (fun w -> snd set.ways.(w)) (way_of set line)

  let touch t line =
    let set = set_of t line in
    Option.iter (promote set) (way_of set line)

  let set_state t line st =
    let set = set_of t line in
    match way_of set line with
    | None -> raise Not_found
    | Some w -> set.ways.(w) <- (line, st)

  let insert t line st =
    let set = set_of t line in
    if way_of set line <> None then invalid_arg "model insert: present";
    let invalid = ref None in
    Array.iteri
      (fun w (_, s) -> if !invalid = None && s = Cache.I then invalid := Some w)
      set.ways;
    let w =
      match !invalid with
      | Some w -> w
      | None -> List.nth set.recency (List.length set.recency - 1)
    in
    let victim =
      match set.ways.(w) with _, Cache.I -> None | l, s -> Some (l, s)
    in
    set.ways.(w) <- (line, st);
    promote set w;
    victim

  let invalidate t line =
    let set = set_of t line in
    Option.iter (fun w -> set.ways.(w) <- (line, Cache.I)) (way_of set line)

  let valid_lines t =
    Array.to_list t
    |> List.concat_map (fun set ->
           Array.to_list set.ways |> List.filter (fun (_, st) -> st <> Cache.I))
end

(* What one step returned, exceptions included, for comparing the two. *)
type step_result =
  | R_unit
  | R_state of Cache.state option
  | R_victim of (int * Cache.state) option
  | R_raised of string

let capture f =
  try f () with
  | Not_found -> R_raised "Not_found"
  | Invalid_argument _ -> R_raised "Invalid_argument"

let states = [| Cache.M; Cache.O; Cache.E; Cache.S; Cache.I |]

(* Model-based property: random geometries and random operation sequences
   (lines 0..15, so sets fill, evict and collide) must give the flat tag
   store and the reference model the same results, victims and valid-line
   lists after every step. Op 5 is the coherence write-hit path: one
   [slot] probe, then [touch_slot] and [set_slot_state] on the slot. *)
let test_cache_model =
  QCheck.Test.make ~name:"flat cache matches the list LRU model" ~count:500
    QCheck.(
      pair
        (pair (int_bound 3) (int_range 1 4))
        (list (triple (int_bound 5) (int_bound 15) (int_bound 4))))
    (fun ((log_sets, ways), ops) ->
      let sets = 1 lsl log_sets in
      let c = Cache.create ~sets ~ways and m = Cache_model.create ~sets ~ways in
      List.for_all
        (fun (op, line, si) ->
          let st = states.(si) in
          let real, model =
            match op with
            | 0 ->
              ( capture (fun () -> R_state (Cache.find c line)),
                capture (fun () -> R_state (Cache_model.find m line)) )
            | 1 ->
              ( capture (fun () -> Cache.touch c line; R_unit),
                capture (fun () -> Cache_model.touch m line; R_unit) )
            | 2 ->
              ( capture (fun () -> Cache.set_state c line st; R_unit),
                capture (fun () -> Cache_model.set_state m line st; R_unit) )
            | 3 ->
              ( capture (fun () -> R_victim (Cache.insert c line st)),
                capture (fun () -> R_victim (Cache_model.insert m line st)) )
            | 4 ->
              ( capture (fun () -> Cache.invalidate c line; R_unit),
                capture (fun () -> Cache_model.invalidate m line; R_unit) )
            | _ ->
              ( capture (fun () ->
                    let i = Cache.slot c line in
                    if i >= 0 then begin
                      Cache.touch_slot c i;
                      Cache.set_slot_state c i Cache.M
                    end;
                    R_unit),
                capture (fun () ->
                    if Cache_model.find m line <> None then begin
                      Cache_model.touch m line;
                      Cache_model.set_state m line Cache.M
                    end;
                    R_unit) )
          in
          real = model
          && Cache.valid_lines c = Cache_model.valid_lines m
          && List.for_all
               (fun l -> Cache.find c l = Cache_model.find m l)
               (List.init 16 Fun.id))
        ops)

(* --- Coherence ---------------------------------------------------------------- *)

let mk_hier n = Coherence.create Coherence.default_config ~n_cores:n

let test_coherence_latencies () =
  let h = mk_hier 2 in
  (* Cold load goes to memory; hot load hits L1. *)
  let t1 = Coherence.access h ~now:0 ~core:0 Coherence.Dload 0 in
  Alcotest.(check bool) "cold load slow" true (t1 > 50);
  let t2 = Coherence.access h ~now:t1 ~core:0 Coherence.Dload 0 in
  Alcotest.(check int) "hot load is an L1 hit" (t1 + 1) t2

let test_coherence_c2c () =
  let h = mk_hier 2 in
  (* Core 0 dirties a line; core 1's load is served cache-to-cache. *)
  ignore (Coherence.access h ~now:0 ~core:0 Coherence.Dstore 0);
  let before = (Coherence.stats h ~core:1).Coherence.c2c_transfers in
  ignore (Coherence.access h ~now:200 ~core:1 Coherence.Dload 0);
  let after = (Coherence.stats h ~core:1).Coherence.c2c_transfers in
  Alcotest.(check int) "c2c transfer" (before + 1) after;
  (match Coherence.check_invariants h with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e)

let test_coherence_upgrade () =
  let h = mk_hier 2 in
  ignore (Coherence.access h ~now:0 ~core:0 Coherence.Dload 0);
  ignore (Coherence.access h ~now:200 ~core:1 Coherence.Dload 0);
  (* Both share the line; now core 0 writes: an upgrade, invalidating 1. *)
  ignore (Coherence.access h ~now:400 ~core:0 Coherence.Dstore 0);
  let s = (Coherence.stats h ~core:0).Coherence.upgrades in
  Alcotest.(check int) "upgrade counted" 1 s;
  (* Core 1 must re-miss. *)
  let m_before = (Coherence.stats h ~core:1).Coherence.l1d_misses in
  ignore (Coherence.access h ~now:600 ~core:1 Coherence.Dload 0);
  Alcotest.(check int) "core1 re-misses" (m_before + 1)
    (Coherence.stats h ~core:1).Coherence.l1d_misses;
  match Coherence.check_invariants h with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e

let test_coherence_ifetch_separate () =
  let h = mk_hier 2 in
  (* The same numeric address in instruction space never collides with
     data space or another core's code. *)
  ignore (Coherence.access h ~now:0 ~core:0 Coherence.Ifetch 0);
  let t = Coherence.access h ~now:200 ~core:0 Coherence.Ifetch 0 in
  Alcotest.(check int) "i-hit" 201 t;
  let d = Coherence.access h ~now:400 ~core:0 Coherence.Dload 0 in
  Alcotest.(check bool) "data still cold" true (d > 450)

(* Safety property: after any random access trace, MOESI invariants hold
   and completion times never precede request times. *)
let test_coherence_random =
  QCheck.Test.make ~name:"moesi invariants under random traffic" ~count:60
    QCheck.(list (triple (int_bound 3) bool (int_bound 255)))
    (fun trace ->
      let h = mk_hier 4 in
      let now = ref 0 in
      let ok = ref true in
      List.iter
        (fun (core, write, addr) ->
          let kind = if write then Coherence.Dstore else Coherence.Dload in
          let done_ = Coherence.access h ~now:!now ~core kind addr in
          if done_ <= !now then ok := false;
          now := !now + 3)
        trace;
      !ok && match Coherence.check_invariants h with Ok _ -> true | Error _ -> false)

(* --- Directory protocol -------------------------------------------------------- *)

(* Hand-computed expectations against the default directory pricing:
   dir_lat_msg 2, dir_lat_lookup 2, dir_lat_fwd 2, dir_lat_inv 4,
   lat_l2 8, lat_mem 100, lat_c2c 12 (8-word lines, so addr 0 and 8 are
   the first two lines, whose homes are cores 0 and 1). *)

let dir_config =
  { Coherence.default_config with Coherence.protocol = Coherence.Directory }

let mk_dir n = Coherence.create dir_config ~n_cores:n

let states_of h addr =
  let _, states = Coherence.l1d_line_states h ~addr in
  states

let sweep_ok h =
  match Coherence.check_invariants h with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e

let test_dir_read_fanout () =
  let h = mk_dir 4 in
  (* First reader: nobody holds the line — exclusive grant, request
     message + directory lookup over a memory fetch. *)
  let t0 = Coherence.access h ~now:0 ~core:0 Coherence.Dload 0 in
  Alcotest.(check int) "first reader: msg + lookup + mem" (0 + 2 + 2 + 100) t0;
  Alcotest.(check bool) "exclusive" true (states_of h 0 = [ (0, Cache.E) ]);
  Alcotest.(check bool) "owner recorded" true
    (Coherence.dir_owner h ~addr:0 = Some 0);
  (* Second reader: the home forwards to the exclusive owner (3-hop
     indirection); the owner supplies the line and downgrades to S. *)
  let t1 = Coherence.access h ~now:200 ~core:1 Coherence.Dload 0 in
  Alcotest.(check int) "second reader: 3-hop c2c" (200 + 2 + 2 + 2 + 12) t1;
  Alcotest.(check bool) "both shared" true
    (states_of h 0 = [ (0, Cache.S); (1, Cache.S) ]);
  Alcotest.(check bool) "ownership cleared" true
    (Coherence.dir_owner h ~addr:0 = None);
  Alcotest.(check int) "indirection counted" 1
    (Coherence.stats h ~core:1).Coherence.dir_indirections;
  (* Third reader: no owner left, so the home answers from L2. *)
  let t2 = Coherence.access h ~now:400 ~core:2 Coherence.Dload 0 in
  Alcotest.(check int) "third reader: home L2 hit" (400 + 2 + 2 + 8) t2;
  Alcotest.(check (list int)) "sharer fan-out" [ 0; 1; 2 ]
    (Coherence.dir_sharers h ~addr:0);
  sweep_ok h

let test_dir_upgrade_invalidations () =
  let h = mk_dir 4 in
  ignore (Coherence.access h ~now:0 ~core:0 Coherence.Dload 0);
  ignore (Coherence.access h ~now:200 ~core:1 Coherence.Dload 0);
  ignore (Coherence.access h ~now:400 ~core:2 Coherence.Dload 0);
  (* Write hit on the shared line: targeted invalidations to the two
     actual remote sharers (no broadcast), one invalidation round. *)
  let t = Coherence.access h ~now:600 ~core:0 Coherence.Dstore 0 in
  Alcotest.(check int) "upgrade: msg + lookup + inv round" (600 + 2 + 2 + 4) t;
  Alcotest.(check int) "upgrade counted" 1
    (Coherence.stats h ~core:0).Coherence.upgrades;
  Alcotest.(check int) "one invalidation per remote sharer" 2
    (Coherence.stats h ~core:0).Coherence.dir_invalidations;
  Alcotest.(check bool) "writer alone in M" true (states_of h 0 = [ (0, Cache.M) ]);
  Alcotest.(check (list int)) "sharers collapsed" [ 0 ]
    (Coherence.dir_sharers h ~addr:0);
  Alcotest.(check bool) "writer owns" true (Coherence.dir_owner h ~addr:0 = Some 0);
  sweep_ok h

let test_dir_eviction_writeback () =
  let small = { dir_config with Coherence.l1d_sets = 1; l1d_ways = 1 } in
  let h = Coherence.create small ~n_cores:2 in
  ignore (Coherence.access h ~now:0 ~core:0 Coherence.Dstore 0);
  Alcotest.(check (list int)) "dirty line tracked" [ 0 ]
    (Coherence.dir_sharers h ~addr:0);
  (* Filling line 1 evicts the dirty line: the home is notified (its entry
     vanishes — precise sharer tracking, no silent evictions) and the
     data writes back to L2. *)
  ignore (Coherence.access h ~now:200 ~core:0 Coherence.Dstore 8);
  Alcotest.(check (list int)) "eviction notified the home" []
    (Coherence.dir_sharers h ~addr:0);
  Alcotest.(check bool) "no stale owner" true (Coherence.dir_owner h ~addr:0 = None);
  Alcotest.(check int) "writeback counted" 1
    (Coherence.stats h ~core:0).Coherence.writebacks;
  (* A later reader is served the written-back copy from the home's L2,
     not routed to a phantom owner. *)
  let t = Coherence.access h ~now:400 ~core:1 Coherence.Dload 0 in
  Alcotest.(check int) "refill from home L2" (400 + 2 + 2 + 8) t;
  sweep_ok h

let test_dir_write_indirection () =
  let h = mk_dir 4 in
  ignore (Coherence.access h ~now:0 ~core:0 Coherence.Dstore 0);
  (* Write miss while a remote core owns the dirty line: the home forwards
     the request, the owner hands the line over cache-to-cache and
     invalidates itself — ownership transfers without a memory trip. *)
  let t = Coherence.access h ~now:200 ~core:1 Coherence.Dstore 0 in
  Alcotest.(check int) "3-hop ownership transfer" (200 + 2 + 2 + 2 + 12) t;
  let s1 = Coherence.stats h ~core:1 in
  Alcotest.(check int) "indirection" 1 s1.Coherence.dir_indirections;
  Alcotest.(check int) "c2c" 1 s1.Coherence.c2c_transfers;
  Alcotest.(check int) "old owner invalidated" 1 s1.Coherence.dir_invalidations;
  Alcotest.(check bool) "ownership transferred" true
    (Coherence.dir_owner h ~addr:0 = Some 1);
  Alcotest.(check bool) "writer alone" true (states_of h 0 = [ (1, Cache.M) ]);
  Alcotest.(check int) "dirty transfer needs no writeback" 0
    (Coherence.stats h ~core:0).Coherence.writebacks;
  sweep_ok h

let test_dir_stale_sharer_caught () =
  let h = mk_dir 2 in
  ignore (Coherence.access h ~now:0 ~core:0 Coherence.Dload 0);
  ignore (Coherence.access h ~now:200 ~core:1 Coherence.Dload 0);
  (* Arm the backdoor: the next invalidation round silently skips the
     highest-numbered remote sharer, leaving core 1's copy stale. *)
  Coherence.test_inject_stale_sharer h;
  ignore (Coherence.access h ~now:400 ~core:0 Coherence.Dstore 0);
  Alcotest.(check bool) "stale sharer left behind" true
    (states_of h 0 = [ (0, Cache.M); (1, Cache.S) ]);
  (* The single-writer oracle — the same sweep the runtime sanitizer runs
     at finalize (class "coherence-states") — must reject the hierarchy. *)
  match Coherence.check_invariants h with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "stale sharer escaped the invariant sweep"

(* Safety under random traffic, directory edition: same property as the
   snoop QCheck test, plus the directory/cache agreement audit that
   [check_invariants] adds on this backend. *)
let test_dir_random =
  QCheck.Test.make ~name:"directory invariants under random traffic" ~count:60
    QCheck.(list (triple (int_bound 3) bool (int_bound 255)))
    (fun trace ->
      let h = mk_dir 4 in
      let now = ref 0 in
      let ok = ref true in
      List.iter
        (fun (core, write, addr) ->
          let kind = if write then Coherence.Dstore else Coherence.Dload in
          let done_ = Coherence.access h ~now:!now ~core kind addr in
          if done_ <= !now then ok := false;
          now := !now + 3)
        trace;
      !ok
      && match Coherence.check_invariants h with Ok _ -> true | Error _ -> false)

(* --- Transactional memory ------------------------------------------------------ *)

let test_tm_isolation () =
  let mem = Memory.create 16 in
  let tm = Tm.create mem ~n_cores:2 in
  Tm.tx_begin tm ~core:0;
  Tm.write tm ~core:0 3 42;
  Alcotest.(check int) "own write visible" 42 (Tm.read tm ~core:0 3);
  Alcotest.(check int) "memory untouched" 0 (Memory.read mem 3);
  Tm.tx_begin tm ~core:1;
  Alcotest.(check int) "peer sees old value" 0 (Tm.read tm ~core:1 3)

let test_tm_commit_applies () =
  let mem = Memory.create 16 in
  let tm = Tm.create mem ~n_cores:2 in
  Tm.tx_begin tm ~core:0;
  Tm.tx_begin tm ~core:1;
  Tm.write tm ~core:0 1 10;
  Tm.write tm ~core:1 2 20;
  (match Tm.commit_round tm ~cores:[ 0; 1 ] with
  | `All_committed -> ()
  | `Conflict_at c -> Alcotest.fail (Printf.sprintf "unexpected conflict at %d" c));
  Alcotest.(check int) "w0" 10 (Memory.read mem 1);
  Alcotest.(check int) "w1" 20 (Memory.read mem 2)

let test_tm_raw_conflict () =
  let mem = Memory.create 16 in
  let tm = Tm.create mem ~n_cores:2 in
  Tm.tx_begin tm ~core:0;
  Tm.tx_begin tm ~core:1;
  Tm.write tm ~core:0 5 99;
  ignore (Tm.read tm ~core:1 5) (* reads stale pre-round value *);
  (match Tm.commit_round tm ~cores:[ 0; 1 ] with
  | `Conflict_at 1 -> ()
  | `Conflict_at c -> Alcotest.fail (Printf.sprintf "conflict at wrong core %d" c)
  | `All_committed -> Alcotest.fail "RAW conflict missed");
  (* Earlier core stays committed; later core rolled back. *)
  Alcotest.(check int) "core0 committed" 99 (Memory.read mem 5);
  Alcotest.(check bool) "core1 aborted" false (Tm.in_tx tm ~core:1)

let test_tm_waw_safe () =
  (* Write-write overlap without reads commits in core order: the later
     chunk's value wins, matching serial iteration order. *)
  let mem = Memory.create 16 in
  let tm = Tm.create mem ~n_cores:2 in
  Tm.tx_begin tm ~core:0;
  Tm.tx_begin tm ~core:1;
  Tm.write tm ~core:0 7 1;
  Tm.write tm ~core:1 7 2;
  (match Tm.commit_round tm ~cores:[ 0; 1 ] with
  | `All_committed -> ()
  | `Conflict_at _ -> Alcotest.fail "WAW must not conflict");
  Alcotest.(check int) "later core wins" 2 (Memory.read mem 7)

let test_tm_abort_discards () =
  let mem = Memory.create 8 in
  let tm = Tm.create mem ~n_cores:1 in
  Tm.tx_begin tm ~core:0;
  Tm.write tm ~core:0 0 5;
  Tm.abort tm ~core:0;
  Alcotest.(check int) "discarded" 0 (Memory.read mem 0);
  Alcotest.(check bool) "not in tx" false (Tm.in_tx tm ~core:0)

(* Serialisability: chunked transactional execution of random independent
   per-core writes equals running the chunks serially in core order. *)
let test_tm_serialisable =
  QCheck.Test.make ~name:"tm round equals serial core-order execution" ~count:100
    QCheck.(list (triple (int_bound 3) (int_bound 31) (int_bound 100)))
    (fun writes ->
      let mem_tx = Memory.create 32 and mem_serial = Memory.create 32 in
      let tm = Tm.create mem_tx ~n_cores:4 in
      for c = 0 to 3 do
        Tm.tx_begin tm ~core:c
      done;
      List.iter (fun (core, addr, v) -> Tm.write tm ~core addr v) writes;
      (match Tm.commit_round tm ~cores:[ 0; 1; 2; 3 ] with
      | `All_committed -> ()
      | `Conflict_at _ -> () (* no reads, cannot happen *));
      for c = 0 to 3 do
        List.iter
          (fun (core, addr, v) -> if core = c then Memory.write mem_serial addr v)
          writes
      done;
      Memory.equal mem_tx mem_serial)

let () =
  Alcotest.run "mem"
    [
      ( "memory",
        [
          Alcotest.test_case "read/write" `Quick test_memory_rw;
          Alcotest.test_case "snapshot" `Quick test_memory_snapshot;
          Alcotest.test_case "checksum prefix" `Quick test_checksum_prefix;
        ] );
      ( "cache",
        [
          Alcotest.test_case "insert/find" `Quick test_cache_insert_find;
          Alcotest.test_case "lru eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "invalidate" `Quick test_cache_invalidate;
          QCheck_alcotest.to_alcotest test_cache_model;
        ] );
      ( "coherence",
        [
          Alcotest.test_case "latencies" `Quick test_coherence_latencies;
          Alcotest.test_case "cache-to-cache" `Quick test_coherence_c2c;
          Alcotest.test_case "upgrade" `Quick test_coherence_upgrade;
          Alcotest.test_case "ifetch space" `Quick test_coherence_ifetch_separate;
          QCheck_alcotest.to_alcotest test_coherence_random;
        ] );
      ( "directory",
        [
          Alcotest.test_case "read-shared fan-out" `Quick test_dir_read_fanout;
          Alcotest.test_case "upgrade invalidations" `Quick
            test_dir_upgrade_invalidations;
          Alcotest.test_case "eviction writeback" `Quick
            test_dir_eviction_writeback;
          Alcotest.test_case "home-node indirection" `Quick
            test_dir_write_indirection;
          Alcotest.test_case "stale sharer caught" `Quick
            test_dir_stale_sharer_caught;
          QCheck_alcotest.to_alcotest test_dir_random;
        ] );
      ( "tm",
        [
          Alcotest.test_case "isolation" `Quick test_tm_isolation;
          Alcotest.test_case "commit applies" `Quick test_tm_commit_applies;
          Alcotest.test_case "raw conflict" `Quick test_tm_raw_conflict;
          Alcotest.test_case "waw safe" `Quick test_tm_waw_safe;
          Alcotest.test_case "abort discards" `Quick test_tm_abort_discards;
          QCheck_alcotest.to_alcotest test_tm_serialisable;
        ] );
    ]
