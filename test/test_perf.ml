(* Performance-safety tests.

   The simulator's hot-path machinery (predecoded images, the stall
   fast-forward, the allocation-free sweep) is licensed by one promise: no
   architecturally visible number changes. These tests hold it to that —
   a full differential sweep of the workload suite with fast-forward on
   vs. off, comparing outcome, cycle count, memory checksum, every Stats
   counter, every per-region attribution cell, every interval sample and
   every mid-run counter reading bit-for-bit — and pin
   the per-cycle minor-heap allocation to a budget so the sweep cannot
   quietly regress into a GC-bound loop. *)

module Suite = Voltron_workloads.Suite
module Stats = Voltron_machine.Stats
module Config = Voltron_machine.Config
module Machine = Voltron_machine.Machine
module Driver = Voltron_compiler.Driver
module Region_profile = Voltron_obs.Region_profile
module Sampler = Voltron_obs.Sampler
module Coherence = Voltron_mem.Coherence
module Net = Voltron_net.Operand_network

let scale = 0.15

type snapshot = {
  outcome_tag : string;
  cycles : int;
  checksum : int;
  stats : Stats.t;
  regions : Region_profile.row list;
  samples : Sampler.sample list;
  readings : int array list;
}

let outcome_tag (o : Machine.outcome) =
  match o with
  | Machine.Finished -> "finished"
  | Machine.Out_of_cycles -> "out-of-cycles"
  | Machine.Deadlock _ -> "deadlock"
  | Machine.Fault_limit _ -> "fault-limit"
  | Machine.Stopped _ -> "stopped"

let run_one ?(protocol = Coherence.Snoop) ~ff ~choice ~cores program =
  let machine =
    Config.with_coherence protocol
      { (Config.default ~n_cores:cores) with Config.fast_forward = ff }
  in
  let compiled = Driver.compile ~machine ~choice ~check:false program in
  let m = Machine.create machine compiled.Driver.executable in
  (* Three readers of the core-cycle credit stay attached under
     fast-forward, so the differential covers each: the attribution probe
     (deferred reports must land in the very same cells), the sampler
     (reads [Machine.stats] from the window hook, between cycles) and a
     network monitor that reads it mid-sweep, at every message enqueue
     and delivery, where each core's credited total must be what the
     per-cycle sweep has credited by then. *)
  let rp = Region_profile.attach m compiled in
  let sampler = Sampler.attach ~every:500 m in
  let readings = ref [] in
  Net.set_monitor (Machine.network m) (fun _ ->
      let credited (c : Stats.core) =
        c.Stats.busy + c.Stats.idle + Stats.total_stalls c
      in
      readings := Array.map credited (Machine.stats m).Stats.per_core :: !readings);
  let result = Machine.run m in
  {
    outcome_tag = outcome_tag result.Machine.outcome;
    cycles = result.Machine.cycles;
    checksum = result.Machine.checksum;
    stats = Machine.stats m;
    regions = Region_profile.rows rp;
    samples = Sampler.samples sampler;
    readings = List.rev !readings;
  }

let choices =
  [ (`Seq, "seq"); (`Ilp, "ilp"); (`Tlp, "tlp"); (`Llp, "llp"); (`Hybrid, "hybrid") ]

(* Every benchmark x every strategy x {2, 4} cores: fast-forward on and
   off must be indistinguishable in everything but wall-clock. Structural
   equality is exact here: [Stats.t] and [Region_profile.row] are records
   of ints, strings and int arrays; samples hold floats, compared with
   [compare] so that a NaN gauge equals itself. *)
let check_same label ~slow ~fast =
  Alcotest.(check string) (label ^ " outcome") slow.outcome_tag fast.outcome_tag;
  Alcotest.(check int) (label ^ " cycles") slow.cycles fast.cycles;
  Alcotest.(check int) (label ^ " checksum") slow.checksum fast.checksum;
  Alcotest.(check bool)
    (label ^ " stats bit-identical") true (slow.stats = fast.stats);
  Alcotest.(check bool)
    (label ^ " attribution bit-identical") true (slow.regions = fast.regions);
  Alcotest.(check bool)
    (label ^ " samples bit-identical") true
    (compare slow.samples fast.samples = 0);
  Alcotest.(check bool)
    (label ^ " mid-sweep readings identical") true (slow.readings = fast.readings)

let test_differential () =
  List.iter
    (fun (b : Suite.benchmark) ->
      let program = b.Suite.build ~scale () in
      List.iter
        (fun (choice, cname) ->
          List.iter
            (fun cores ->
              let label =
                Printf.sprintf "%s/%s/%d cores" b.Suite.bench_name cname cores
              in
              check_same label
                ~slow:(run_one ~ff:false ~choice ~cores program)
                ~fast:(run_one ~ff:true ~choice ~cores program))
            [ 2; 4 ])
        choices)
    Suite.all

(* The deep-queue case: hybrid on 16 cores keeps the most operand-network
   messages in flight (at this scale 164.gzip and cjpeg peak at 144 and
   147 over the directory), so the fast-forward wake queries scan long
   channels here, and most cores are skipped at any one cycle. *)
let test_differential_16 protocol () =
  List.iter
    (fun name ->
      let program = (Suite.by_name name).Suite.build ~scale () in
      let run ~ff = run_one ~protocol ~ff ~choice:`Hybrid ~cores:16 program in
      check_same
        (Printf.sprintf "%s/hybrid/16 cores/%s" name
           (Coherence.protocol_name protocol))
        ~slow:(run ~ff:false) ~fast:(run ~ff:true))
    [ "164.gzip"; "cjpeg"; "gsmencode" ]

(* Per-cycle minor-heap budget, in words. The sweep's residual allocations
   are small and bounded (a [Some target] per taken branch, TM read/write
   set entries per transactional access; a blocked core's verdict is one
   of the machine's preallocated waits, not a fresh [Some wait]); measured
   2.6 at 4 cores and 5.4 (snoop) and 5.6 (directory) at 16 cores on this
   workload, and the budget is set well above that so a regression that
   reintroduces per-cycle closures, lists or hashtables (tens to hundreds
   of words each) fails loudly while normal drift does not. The 16-core
   legs keep deep operand-network queues in flight, where a query that
   walks or copies a queue shows first. *)
let alloc_budget_words_per_cycle = 24.0

let test_allocation_budget ~cores ~protocol () =
  let b = Suite.by_name "gsmencode" in
  let program = b.Suite.build ~scale:0.5 () in
  (* Fast-forward off so every cycle takes the per-cycle path being
     measured; no attribution/tracer, matching the perf harness. *)
  let machine =
    Config.with_coherence protocol
      { (Config.default ~n_cores:cores) with Config.fast_forward = false }
  in
  let compiled = Driver.compile ~machine ~choice:`Hybrid ~check:false program in
  let m = Machine.create machine compiled.Driver.executable in
  let before = Gc.minor_words () in
  let result = Machine.run m in
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "run finished" true
    (result.Machine.outcome = Machine.Finished);
  let per_cycle = words /. float_of_int result.Machine.cycles in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words/cycle within %.0f"
       per_cycle alloc_budget_words_per_cycle)
    true
    (per_cycle <= alloc_budget_words_per_cycle)

(* Words allocated by [f ()], minor and major heap together (arrays past
   the minor-heap size limit go straight to the major heap). A full major
   cycle on each side flushes the runtime's lazily updated major-heap
   counters; measuring an empty thunk the same way cancels the probe's own
   allocations. *)
let allocated_words f =
  let measure f =
    Gc.full_major ();
    let s0 = Gc.quick_stat () in
    ignore (Sys.opaque_identity (f ()));
    Gc.full_major ();
    let s1 = Gc.quick_stat () in
    s1.Gc.minor_words -. s0.Gc.minor_words
    +. (s1.Gc.major_words -. s0.Gc.major_words)
    -. (s1.Gc.promoted_words -. s0.Gc.promoted_words)
  in
  measure f -. measure (fun () -> ())

(* Building a machine's cache hierarchy is a few flat arrays per cache:
   19,026 words at 8 cores with the default geometry, most of it the
   4,096-slot L2's three arrays. The per-set records this replaced took
   53,815, which every fuzz-differential cell paid four times over. *)
let create_budget_words = 25_000.0

let test_create_budget () =
  let words =
    allocated_words (fun () ->
        Coherence.create Coherence.default_config ~n_cores:8)
  in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words within %.0f" words create_budget_words)
    true
    (words <= create_budget_words)

let () =
  Alcotest.run "perf"
    [
      ( "fast-forward",
        [
          Alcotest.test_case "differential suite sweep" `Slow test_differential;
          Alcotest.test_case "differential 16 cores directory" `Slow
            (test_differential_16 Coherence.Directory);
          Alcotest.test_case "differential 16 cores snoop" `Slow
            (test_differential_16 Coherence.Snoop);
        ] );
      ( "allocation",
        [
          Alcotest.test_case "per-cycle budget" `Quick
            (test_allocation_budget ~cores:4 ~protocol:Coherence.Snoop);
          Alcotest.test_case "per-cycle budget, 16 cores snoop" `Quick
            (test_allocation_budget ~cores:16 ~protocol:Coherence.Snoop);
          Alcotest.test_case "per-cycle budget, 16 cores directory" `Quick
            (test_allocation_budget ~cores:16 ~protocol:Coherence.Directory);
          Alcotest.test_case "hierarchy construction budget" `Quick
            test_create_budget;
        ] );
    ]
