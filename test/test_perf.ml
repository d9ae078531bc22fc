(* Performance-safety tests.

   The simulator's hot-path machinery (predecoded images, the stall
   fast-forward, NOP-run elision, the allocation-free sweep) is licensed
   by one promise: no architecturally visible number changes. These tests
   hold it to that — a full differential sweep of the workload suite with
   fast-forward on vs. off, comparing outcome, cycle count, memory
   checksum, every Stats counter, every per-region attribution cell (per
   core-cycle reports for hand-written programs), every interval sample
   and every mid-run counter reading bit-for-bit — and pin
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
module Asm = Voltron_isa.Asm
module Sanity = Voltron_sanity.Sanity

let scale = 0.15

type attribution =
  | Regions of Region_profile.row list  (** compiled programs *)
  | Timeline of (int * int * bool * Machine.blame_event) list array
      (** hand-written programs: per core, one [(cycle, pc, redo, event)]
          per core-cycle, in report order *)

type snapshot = {
  outcome_tag : string;
  cycles : int;
  checksum : int;
  stats : Stats.t;
  attribution : attribution;
  samples : Sampler.sample list;
  readings : int array list;
  fetches : int;  (** instruction fetches the coherence monitor saw *)
}

let outcome_tag (o : Machine.outcome) =
  match o with
  | Machine.Finished -> "finished"
  | Machine.Out_of_cycles -> "out-of-cycles"
  | Machine.Deadlock _ -> "deadlock"
  | Machine.Fault_limit _ -> "fault-limit"
  | Machine.Stopped _ -> "stopped"

(* Three readers of the core-cycle credit stay attached under
   fast-forward, so the differential covers each: the attribution probe
   (deferred reports must land in the very same cells), the sampler
   (reads [Machine.stats] from its [on_window], between cycles) and a
   probe whose [on_net] reads it mid-sweep, at every message enqueue and
   delivery and every direct-mode PUT (phase 1 of a coupled issue) and GET
   (phase 2), where each core's credited total must be what the per-cycle
   sweep has credited by then. The same probe's [on_access] counts
   instruction fetches, which NOP-run elision skips. All three are
   composed on one machine, so the network and coherence readers run
   through the machine's forwarding of the subsystem streams. *)
let observe ~every m ~attribution =
  let sampler = Sampler.attach ~every m in
  let readings = ref [] in
  let fetches = ref 0 in
  Machine.attach_probe m
    {
      Machine.null_probe with
      on_net =
        Some
          (fun _ ->
            let credited (c : Stats.core) =
              c.Stats.busy + c.Stats.idle + Stats.total_stalls c
            in
            readings :=
              Array.map credited (Machine.stats m).Stats.per_core :: !readings);
      on_access =
        Some
          (fun ~core:_ ~completion:_ kind _ ->
            match kind with
            | Coherence.Ifetch -> incr fetches
            | Coherence.Dload | Coherence.Dstore -> ());
    };
  let result = Machine.run m in
  {
    outcome_tag = outcome_tag result.Machine.outcome;
    cycles = result.Machine.cycles;
    checksum = result.Machine.checksum;
    stats = Machine.stats m;
    attribution = attribution ();
    samples = Sampler.samples sampler;
    readings = List.rev !readings;
    fetches = !fetches;
  }

let config ?(protocol = Coherence.Snoop) ?(tweak = Fun.id) ~ff cores =
  tweak
    (Config.with_coherence protocol
       { (Config.default ~n_cores:cores) with Config.fast_forward = ff })

let run_one ?protocol ?tweak ~ff ~choice ~cores program =
  let machine = config ?protocol ?tweak ~ff cores in
  let compiled = Driver.compile ~machine ~choice ~check:false program in
  let m = Machine.create machine compiled.Driver.executable in
  let rp = Region_profile.attach m compiled in
  observe ~every:500 m ~attribution:(fun () -> Regions (Region_profile.rows rp))

(* A hand-written program has no regions, so its probe records every
   core-cycle report, expanded to one entry per cycle; a report that does
   not continue its core's timeline (out of time order, or leaving a gap)
   fails at once. *)
let run_asm ?tweak ?(attach = ignore) ~ff ~cores program =
  let m = Machine.create (config ?tweak ~ff cores) program in
  attach m;
  let rev = Array.make cores [] and next = Array.make cores 1 in
  Machine.attach_probe m
    {
      Machine.null_probe with
      on_core_cycles =
        Some
          (fun ~core ~pc ~k ~upto ~redo ev ->
            let from = upto - k + 1 in
            if from <> next.(core) then
              Alcotest.failf "core %d: report [%d, %d] breaks its timeline at %d"
                core from upto next.(core);
            for c = from to upto do
              rev.(core) <- (c, pc, redo, ev) :: rev.(core)
            done;
            next.(core) <- upto + 1);
    };
  observe ~every:7 m ~attribution:(fun () -> Timeline (Array.map List.rev rev))

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
    (label ^ " attribution bit-identical") true
    (slow.attribution = fast.attribution);
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

(* NOP-run elision on a hand-written 4-core coupled program (8-word
   I-lines, so lines start at bundle addresses 0, 8, 16, 24). Core 0 PUTs
   to core 1 in the second coupled cycle while cores 2 and 3 are in NOP
   runs; core 2 PUTs to core 3 in the fifth while core 1 is in one and
   core 3's GET runs in phase 2 after it. Core 0's runs cross the lines at
   8 and 16 and its loop branches back into the middle of a run at
   [mid0]; core 3's runs each follow a load that misses. *)
let nop_runs_program =
  {|.memory 512

=== core 0 ===
    spawn c1, w1
    spawn c2, w2
    spawn c3, w3
    mode_switch coupled
    mov r1 = #7
    put.e r1
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    mov r3 = #3
    pbr b0 = mid0
    nop
    nop
mid0:
    nop
    nop
    nop
    sub r3 = r3, #1
    cmp.gt r4 = r3, #0
    nop
    br b0 if r4
    mode_switch decoupled
    halt

=== core 1 ===
w1:
    mode_switch coupled
    nop
    get.w r2
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    mode_switch decoupled
    halt

=== core 2 ===
w2:
    mode_switch coupled
    mov r1 = #9
    nop
    nop
    nop
    put.e r1
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    mode_switch decoupled
    halt

=== core 3 ===
w3:
    mode_switch coupled
    mov r5 = #64
    load r6 = [r5 + #0]
    nop
    nop
    get.w r2
    nop
    nop
    nop
    load r7 = [r5 + #128]
    nop
    nop
    nop
    nop
    nop
    nop
    mode_switch decoupled
    halt
|}

let with_lat_l1 lat (c : Config.t) =
  { c with Config.cache = { c.Config.cache with Coherence.lat_l1 = lat } }

(* Elision must engage here (fast-forward skips fetches the per-cycle
   reference makes) and change nothing else. *)
let test_elision_program () =
  let program = Asm.parse nop_runs_program in
  let slow = run_asm ~ff:false ~cores:4 program
  and fast = run_asm ~ff:true ~cores:4 program in
  Alcotest.(check string) "finished" "finished" slow.outcome_tag;
  check_same "nop runs" ~slow ~fast;
  Alcotest.(check bool)
    (Printf.sprintf "elided fetches (%d of %d made)" fast.fetches slow.fetches)
    true
    (fast.fetches < slow.fetches)

(* The sanitizer rides the fast path: attached, it leaves fast-forward and
   NOP-run elision on, and checks the same run the per-cycle sweep makes. *)
let test_sanitized_elision () =
  let program = Asm.parse nop_runs_program in
  let run ~ff =
    let san = ref None in
    let attach m = san := Some (Sanity.attach ~policy:Sanity.Report m) in
    let snap = run_asm ~attach ~ff ~cores:4 program in
    let s = Option.get !san in
    Sanity.finalize s ~completed:(snap.outcome_tag = "finished");
    (snap, Sanity.report s)
  in
  let slow, slow_report = run ~ff:false and fast, fast_report = run ~ff:true in
  check_same "sanitized nop runs" ~slow ~fast;
  Alcotest.(check string) "same sanitizer report"
    (Sanity.report_to_string slow_report)
    (Sanity.report_to_string fast_report);
  Alcotest.(check bool) "reports structurally equal" true (slow_report = fast_report);
  Alcotest.(check bool)
    (Printf.sprintf "elided fetches (%d of %d made)" fast.fetches slow.fetches)
    true
    (fast.fetches < slow.fetches)

(* At [lat_l1 = 2] a memo-hit fetch blocks the next cycle, so elision must
   switch itself off: every fetch is made, and nothing else differs. *)
let test_elision_off_lat_l1 () =
  let tweak = with_lat_l1 2 in
  let same label ~slow ~fast =
    check_same label ~slow ~fast;
    Alcotest.(check int) (label ^ " fetches") slow.fetches fast.fetches
  in
  let program = Asm.parse nop_runs_program in
  same "nop runs/lat_l1 2"
    ~slow:(run_asm ~tweak ~ff:false ~cores:4 program)
    ~fast:(run_asm ~tweak ~ff:true ~cores:4 program);
  List.iter
    (fun name ->
      let program = (Suite.by_name name).Suite.build ~scale () in
      let run ~ff = run_one ~tweak ~ff ~choice:`Hybrid ~cores:16 program in
      same (name ^ "/hybrid/16 cores/lat_l1 2") ~slow:(run ~ff:false)
        ~fast:(run ~ff:true))
    [ "cjpeg"; "gsmencode" ]

(* Per-cycle minor-heap budget, in words. The sweep's residual allocations
   are small and bounded (a [Some target] per taken branch, TM read/write
   set entries per transactional access; a blocked core's verdict is one
   of the machine's preallocated waits, not a fresh [Some wait]); measured
   2.6 at 4 cores and 5.4 (snoop) and 5.6 (directory) at 16 cores on this
   workload. The budget sits above that drift but below the 9.2 / 16.6 /
   17.0 these runs measured while a blocked core still allocated a fresh
   [Some (W_recv _)] per cycle, so reintroducing that allocation fails,
   and so does any per-cycle closure, list or hashtable (tens to hundreds
   of words each). The 16-core legs keep deep operand-network queues in
   flight, where a query that walks or copies a queue shows first. *)
let alloc_budget_words_per_cycle = 8.0

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
          Alcotest.test_case "NOP-run elision, hand-written program" `Quick
            test_elision_program;
          Alcotest.test_case "NOP-run elision, sanitized" `Quick
            test_sanitized_elision;
          Alcotest.test_case "NOP-run elision off at lat_l1 2" `Slow
            test_elision_off_lat_l1;
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
