(* Machine simulator tests: hand-assembled programs exercising each
   execution mechanism — single-core arithmetic and control flow, queue-mode
   SEND/RECV, SPAWN/SLEEP threads, coupled-mode lock-step with PUT/GET and
   BCAST/GETB, mode switching, and TM rounds with and without conflicts. *)

module Inst = Voltron_isa.Inst
module Image = Voltron_isa.Image
module Program = Voltron_isa.Program
module Config = Voltron_machine.Config
module Machine = Voltron_machine.Machine
module Stats = Voltron_machine.Stats

let reg r = Inst.Reg r
let imm i = Inst.Imm i

(* Assemble a one-op-per-bundle image from (label option, inst) rows. *)
let assemble rows =
  let b = Image.builder () in
  List.iter
    (fun (label, ops) ->
      (match label with Some l -> Image.place_label b l | None -> ());
      Image.emit b ops)
    rows;
  Image.finish b

let build_machine ?(n_cores = 1) ?(mem_size = 1024) ?(mem_init = [||])
    ?(fast_forward = true) images =
  let cfg = { (Config.default ~n_cores) with Config.fast_forward } in
  let prog = Program.make ~images ~mem_size ~mem_init in
  Machine.create cfg prog

let run_ok machine =
  let result = Machine.run machine in
  (match result.Machine.outcome with
  | Machine.Finished -> ()
  | Machine.Out_of_cycles -> Alcotest.fail "simulation ran out of cycles"
  | Machine.Deadlock d ->
    Alcotest.fail ("deadlock: " ^ Machine.diagnosis_to_string d)
  | Machine.Fault_limit d ->
    Alcotest.fail ("fault limit: " ^ Machine.diagnosis_to_string d)
  | Machine.Stopped d ->
    Alcotest.fail ("stopped: " ^ Machine.diagnosis_to_string d));
  result

let test_single_core_arith () =
  (* r1 = 2 + 3; r2 = r1 * 4; mem[10] = r2; halt *)
  let image =
    assemble
      [
        (None, [ Inst.Alu { op = Inst.Add; dst = 1; src1 = imm 2; src2 = imm 3 } ]);
        (None, [ Inst.Alu { op = Inst.Mul; dst = 2; src1 = reg 1; src2 = imm 4 } ]);
        (None, [ Inst.Store { base = imm 10; offset = imm 0; src = reg 2 } ]);
        (None, [ Inst.Halt ]);
      ]
  in
  let m = build_machine [| image |] in
  let _ = run_ok m in
  Alcotest.(check int) "r2" 20 (Machine.reg m ~core:0 2);
  Alcotest.(check int) "mem[10]" 20
    (Voltron_mem.Memory.read (Machine.memory m) 10)

let test_loop_sum () =
  (* Sum 0..9 with a backward branch: r1 = i, r2 = acc. *)
  let image =
    assemble
      [
        (None, [ Inst.Mov { dst = 1; src = imm 0 } ]);
        (None, [ Inst.Mov { dst = 2; src = imm 0 } ]);
        (Some "loop", [ Inst.Alu { op = Inst.Add; dst = 2; src1 = reg 2; src2 = reg 1 } ]);
        (None, [ Inst.Alu { op = Inst.Add; dst = 1; src1 = reg 1; src2 = imm 1 } ]);
        (None, [ Inst.Pbr { btr = 0; target = "loop" } ]);
        (None, [ Inst.Cmp { op = Inst.Lt; dst = 3; src1 = reg 1; src2 = imm 10 } ]);
        (None, [ Inst.Br { btr = 0; pred = Some (reg 3); invert = false } ]);
        (None, [ Inst.Store { base = imm 0; offset = imm 0; src = reg 2 } ]);
        (None, [ Inst.Halt ]);
      ]
  in
  let m = build_machine [| image |] in
  let _ = run_ok m in
  Alcotest.(check int) "sum" 45 (Voltron_mem.Memory.read (Machine.memory m) 0)

let test_load_latency_interlock () =
  (* A load's consumer must observe the loaded value despite the miss. *)
  let image =
    assemble
      [
        (None, [ Inst.Load { dst = 1; base = imm 100; offset = imm 0 } ]);
        (None, [ Inst.Alu { op = Inst.Add; dst = 2; src1 = reg 1; src2 = imm 1 } ]);
        (None, [ Inst.Store { base = imm 101; offset = imm 0; src = reg 2 } ]);
        (None, [ Inst.Halt ]);
      ]
  in
  let mem_init = Array.init 101 (fun a -> if a = 100 then 41 else 0) in
  let m = build_machine ~mem_init [| image |] in
  let _ = run_ok m in
  Alcotest.(check int) "mem[101]" 42
    (Voltron_mem.Memory.read (Machine.memory m) 101);
  (* The first load misses in the cold cache, so some D-stall happened. *)
  let stats = Machine.stats m in
  Alcotest.(check bool) "d-stalls" true ((Stats.core stats 0).Stats.d_stall > 0)

let test_spawn_send_recv () =
  (* Core 0 spawns core 1; core 1 computes 7*6 and sends it back. *)
  let master =
    assemble
      [
        (None, [ Inst.Spawn { target = 1; entry = "worker" } ]);
        (None, [ Inst.Recv { sender = 1; dst = 5; kind = Inst.Rv_data } ]);
        (None, [ Inst.Store { base = imm 0; offset = imm 0; src = reg 5 } ]);
        (None, [ Inst.Halt ]);
      ]
  in
  let worker =
    assemble
      [
        (Some "worker", [ Inst.Alu { op = Inst.Mul; dst = 1; src1 = imm 7; src2 = imm 6 } ]);
        (None, [ Inst.Send { target = 0; src = reg 1 } ]);
        (None, [ Inst.Sleep ]);
      ]
  in
  let m = build_machine ~n_cores:2 [| master; worker |] in
  let _ = run_ok m in
  Alcotest.(check int) "mem[0]" 42 (Voltron_mem.Memory.read (Machine.memory m) 0);
  let stats = Machine.stats m in
  Alcotest.(check int) "spawns" 1 stats.Stats.spawns

let test_recv_stall_classification () =
  (* Core 0 waits a long time for a value: recv-data stalls accumulate. *)
  let master =
    assemble
      [
        (None, [ Inst.Spawn { target = 1; entry = "worker" } ]);
        (None, [ Inst.Recv { sender = 1; dst = 5; kind = Inst.Rv_data } ]);
        (None, [ Inst.Halt ]);
      ]
  in
  (* Worker burns ~36 cycles in divisions before sending. *)
  let burn =
    List.init 3 (fun i ->
        (None, [ Inst.Alu { op = Inst.Div; dst = i + 1; src1 = imm 100; src2 = imm 3 } ]))
  in
  let worker =
    assemble
      ((Some "worker", [ Inst.Mov { dst = 0; src = imm 9 } ])
       :: burn
      @ [
          (None, [ Inst.Alu { op = Inst.Add; dst = 4; src1 = reg 3; src2 = reg 0 } ]);
          (None, [ Inst.Send { target = 0; src = reg 4 } ]);
          (None, [ Inst.Sleep ]);
        ])
  in
  let m = build_machine ~n_cores:2 [| master; worker |] in
  let _ = run_ok m in
  let stats = Machine.stats m in
  Alcotest.(check bool) "recv-data stalls" true
    ((Stats.core stats 0).Stats.recv_data_stall > 5)

let switch m = [ Inst.Mode_switch m ]

let test_coupled_put_get () =
  (* Both cores enter coupled mode; core 0 PUTs a value east in the same
     cycle core 1 GETs it from the west; then both leave coupled mode. *)
  let master =
    assemble
      [
        (None, [ Inst.Spawn { target = 1; entry = "enter" } ]);
        (None, switch Inst.Coupled);
        (None, [ Inst.Mov { dst = 1; src = imm 33 } ]);
        (None, [ Inst.Put { dir = Inst.East; src = reg 1 } ]);
        (None, [ Inst.Nop ]);
        (None, switch Inst.Decoupled);
        (None, [ Inst.Recv { sender = 1; dst = 2; kind = Inst.Rv_data } ]);
        (None, [ Inst.Store { base = imm 0; offset = imm 0; src = reg 2 } ]);
        (None, [ Inst.Halt ]);
      ]
  in
  let worker =
    assemble
      [
        (Some "enter", switch Inst.Coupled);
        (None, [ Inst.Nop ]);
        (None, [ Inst.Get { dir = Inst.West; dst = 7 } ]);
        (None, [ Inst.Alu { op = Inst.Add; dst = 8; src1 = reg 7; src2 = imm 1 } ]);
        (None, switch Inst.Decoupled);
        (None, [ Inst.Send { target = 0; src = reg 8 } ]);
        (None, [ Inst.Sleep ]);
      ]
  in
  let m = build_machine ~n_cores:2 [| master; worker |] in
  let _ = run_ok m in
  Alcotest.(check int) "mem[0]" 34 (Voltron_mem.Memory.read (Machine.memory m) 0);
  let stats = Machine.stats m in
  Alcotest.(check bool) "coupled cycles seen" true (stats.Stats.coupled_cycles > 0);
  Alcotest.(check int) "two mode switches" 2 stats.Stats.mode_switches

let test_coupled_bcast_getb () =
  (* Core 0 broadcasts a branch condition; core 1 GETBs it one cycle later
     (1 hop), then both branch in the same cycle to "exit". *)
  let master =
    assemble
      [
        (None, [ Inst.Spawn { target = 1; entry = "enter" } ]);
        (None, switch Inst.Coupled);
        (None, [ Inst.Cmp { op = Inst.Lt; dst = 1; src1 = imm 3; src2 = imm 5 } ]);
        (None, [ Inst.Pbr { btr = 0; target = "exit0" } ]);
        (None, [ Inst.Bcast { src = reg 1 } ]);
        (None, [ Inst.Nop ]);
        (None, [ Inst.Br { btr = 0; pred = Some (reg 1); invert = false } ]);
        (None, [ Inst.Mov { dst = 9; src = imm 111 } ]);
        (Some "exit0", switch Inst.Decoupled);
        (None, [ Inst.Recv { sender = 1; dst = 2; kind = Inst.Rv_data } ]);
        (None, [ Inst.Store { base = imm 0; offset = imm 0; src = reg 2 } ]);
        (None, [ Inst.Halt ]);
      ]
  in
  let worker =
    assemble
      [
        (Some "enter", switch Inst.Coupled);
        (None, [ Inst.Mov { dst = 3; src = imm 5 } ]);
        (None, [ Inst.Pbr { btr = 0; target = "exit1" } ]);
        (None, [ Inst.Nop ]);
        (None, [ Inst.Getb { dst = 4 } ]);
        (None, [ Inst.Br { btr = 0; pred = Some (reg 4); invert = false } ]);
        (None, [ Inst.Mov { dst = 3; src = imm 999 } ]);
        (Some "exit1", switch Inst.Decoupled);
        (None, [ Inst.Send { target = 0; src = reg 3 } ]);
        (None, [ Inst.Sleep ]);
      ]
  in
  let m = build_machine ~n_cores:2 [| master; worker |] in
  let _ = run_ok m in
  (* Both cores took their branches: core 1 still has 5, not 999. *)
  Alcotest.(check int) "mem[0]" 5 (Voltron_mem.Memory.read (Machine.memory m) 0)

let test_tm_commit_no_conflict () =
  (* Two disjoint transactional chunks commit cleanly. *)
  let master =
    assemble
      [
        (None, [ Inst.Spawn { target = 1; entry = "chunk1" } ]);
        (None, [ Inst.Tm_begin ]);
        (None, [ Inst.Store { base = imm 0; offset = imm 0; src = imm 10 } ]);
        (None, [ Inst.Tm_commit ]);
        (None, [ Inst.Recv { sender = 1; dst = 1; kind = Inst.Rv_data } ]);
        (None, [ Inst.Halt ]);
      ]
  in
  let worker =
    assemble
      [
        (Some "chunk1", [ Inst.Tm_begin ]);
        (None, [ Inst.Store { base = imm 1; offset = imm 0; src = imm 20 } ]);
        (None, [ Inst.Tm_commit ]);
        (None, [ Inst.Send { target = 0; src = imm 1 } ]);
        (None, [ Inst.Sleep ]);
      ]
  in
  let m = build_machine ~n_cores:2 [| master; worker |] in
  let _ = run_ok m in
  let mem = Machine.memory m in
  Alcotest.(check int) "mem[0]" 10 (Voltron_mem.Memory.read mem 0);
  Alcotest.(check int) "mem[1]" 20 (Voltron_mem.Memory.read mem 1);
  let stats = Machine.stats m in
  Alcotest.(check int) "one round" 1 stats.Stats.tm_rounds;
  Alcotest.(check int) "no conflict" 0 stats.Stats.tm_conflicts

let test_tm_conflict_rollback () =
  (* Core 1 reads mem[0], which core 0 (logically earlier) writes: core 1
     must abort, re-execute serially, and read the committed value. *)
  let master =
    assemble
      [
        (None, [ Inst.Spawn { target = 1; entry = "chunk1" } ]);
        (None, [ Inst.Tm_begin ]);
        (None, [ Inst.Store { base = imm 0; offset = imm 0; src = imm 77 } ]);
        (None, [ Inst.Tm_commit ]);
        (None, [ Inst.Recv { sender = 1; dst = 1; kind = Inst.Rv_data } ]);
        (None, [ Inst.Halt ]);
      ]
  in
  let worker =
    assemble
      [
        (Some "chunk1", [ Inst.Tm_begin ]);
        (None, [ Inst.Load { dst = 2; base = imm 0; offset = imm 0 } ]);
        (None, [ Inst.Alu { op = Inst.Add; dst = 3; src1 = reg 2; src2 = imm 1 } ]);
        (None, [ Inst.Store { base = imm 1; offset = imm 0; src = reg 3 } ]);
        (None, [ Inst.Tm_commit ]);
        (None, [ Inst.Send { target = 0; src = imm 1 } ]);
        (None, [ Inst.Sleep ]);
      ]
  in
  let m = build_machine ~n_cores:2 [| master; worker |] in
  let _ = run_ok m in
  let mem = Machine.memory m in
  let stats = Machine.stats m in
  Alcotest.(check int) "conflicts" 1 stats.Stats.tm_conflicts;
  Alcotest.(check int) "mem[0]" 77 (Voltron_mem.Memory.read mem 0);
  Alcotest.(check int) "mem[1] saw committed value" 78
    (Voltron_mem.Memory.read mem 1)

let test_deadlock_detected () =
  (* A RECV that can never be satisfied must hit the watchdog, not hang —
     and the diagnosis must name the blocked core and what it waits on. *)
  let image =
    assemble [ (None, [ Inst.Recv { sender = 0; dst = 1; kind = Inst.Rv_data } ]) ]
  in
  let cfg = { (Config.default ~n_cores:1) with Config.watchdog = 500 } in
  let prog = Program.make ~images:[| image |] ~mem_size:64 ~mem_init:[||] in
  let m = Machine.create cfg prog in
  match (Machine.run m).Machine.outcome with
  | Machine.Deadlock d ->
    Alcotest.(check bool) "core 0 waits on a RECV from core 0" true
      (match d.Machine.d_cores.(0).Machine.d_wait with
      | Some (Machine.W_recv { sender = 0; _ }) -> true
      | _ -> false);
    Alcotest.(check bool) "blame edge names the missing sender" true
      (d.Machine.d_blame = Some (0, 0));
    (* The rendering is self-contained enough to debug from. *)
    let s = Machine.diagnosis_to_string d in
    let contains sub =
      let n = String.length s and m = String.length sub in
      let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "diagnosis mentions RECV" true (contains "RECV")
  | Machine.Finished | Machine.Out_of_cycles | Machine.Fault_limit _
  | Machine.Stopped _ ->
    Alcotest.fail "expected deadlock detection"

let test_deadlock_get_no_put () =
  (* Coupled mode: core 1 GETs from the west but core 0 never PUTs; core 0
     meanwhile waits at the mode barrier. Both edges of the cycle must show
     up in the diagnosis. *)
  let c0 =
    assemble
      [
        (None, [ Inst.Spawn { target = 1; entry = "w" } ]);
        (None, switch Inst.Coupled);
        (None, [ Inst.Nop ]);
        (None, switch Inst.Decoupled);
        (None, [ Inst.Halt ]);
      ]
  in
  let c1 =
    assemble
      [
        (Some "w", switch Inst.Coupled);
        (None, [ Inst.Nop ]);
        (None, [ Inst.Get { dir = Inst.West; dst = 5 } ]);
        (None, switch Inst.Decoupled);
        (None, [ Inst.Sleep ]);
      ]
  in
  let cfg = { (Config.default ~n_cores:2) with Config.watchdog = 500 } in
  let prog = Program.make ~images:[| c0; c1 |] ~mem_size:64 ~mem_init:[||] in
  let m = Machine.create cfg prog in
  match (Machine.run m).Machine.outcome with
  | Machine.Deadlock d ->
    Alcotest.(check bool) "core 1 stuck on the empty west latch" true
      (match d.Machine.d_cores.(1).Machine.d_wait with
      | Some (Machine.W_get_latch Inst.West) -> true
      | _ -> false);
    Alcotest.(check bool) "blame edge crosses the pair" true
      (d.Machine.d_blame = Some (0, 1) || d.Machine.d_blame = Some (1, 0))
  | Machine.Finished | Machine.Out_of_cycles | Machine.Fault_limit _
  | Machine.Stopped _ ->
    Alcotest.fail "expected deadlock detection"

(* A coupled program that breaks the PUT/GET pairing wedges the offending
   core for the watchdog, like a GET with no PUT, instead of raising out of
   [Machine.run]. [c0] and [c1] run between the two mode switches. *)
let latch_fault c0 c1 =
  let master =
    assemble
      ([ (None, [ Inst.Spawn { target = 1; entry = "w" } ]); (None, switch Inst.Coupled) ]
      @ List.map (fun b -> (None, b)) c0
      @ [ (None, switch Inst.Decoupled); (None, [ Inst.Halt ]) ])
  in
  let worker =
    assemble
      ([ (Some "w", switch Inst.Coupled) ]
      @ List.map (fun b -> (None, b)) c1
      @ [ (None, switch Inst.Decoupled); (None, [ Inst.Sleep ]) ])
  in
  let cfg = { (Config.default ~n_cores:2) with Config.watchdog = 500 } in
  let prog = Program.make ~images:[| master; worker |] ~mem_size:64 ~mem_init:[||] in
  match (Machine.run (Machine.create cfg prog)).Machine.outcome with
  | Machine.Deadlock d -> d
  | Machine.Finished | Machine.Out_of_cycles | Machine.Fault_limit _
  | Machine.Stopped _ ->
    Alcotest.fail "expected deadlock detection"

let test_deadlock_put_full_latch () =
  (* Core 0 PUTs east twice; core 1 never GETs. *)
  let put v = [ Inst.Put { dir = Inst.East; src = imm v } ] in
  let d = latch_fault [ put 1; put 2 ] [ [ Inst.Nop ]; [ Inst.Nop ] ] in
  Alcotest.(check bool) "core 0 stuck on its full east latch" true
    (d.Machine.d_cores.(0).Machine.d_wait = Some (Machine.W_put_latch Inst.East));
  Alcotest.(check bool) "blame edge names core 0" true
    (d.Machine.d_blame = Some (0, 1))

let test_deadlock_stale_get () =
  (* Core 1's GET comes a cycle after core 0's PUT. *)
  let d =
    latch_fault
      [ [ Inst.Put { dir = Inst.East; src = imm 7 } ]; [ Inst.Nop ] ]
      [ [ Inst.Nop ]; [ Inst.Get { dir = Inst.West; dst = 5 } ] ]
  in
  Alcotest.(check bool) "core 1 stuck on its stale west latch" true
    (d.Machine.d_cores.(1).Machine.d_wait = Some (Machine.W_get_latch Inst.West));
  Alcotest.(check bool) "blame edge crosses the pair" true
    (d.Machine.d_blame = Some (0, 1) || d.Machine.d_blame = Some (1, 0))

let test_deadlock_tm_commit () =
  (* In-order chunk commit needs every core at TM_COMMIT; core 1 is asleep,
     so core 0's round can never resolve. The diagnosis must blame the
     missing participant. *)
  let c0 =
    assemble
      [
        (None, [ Inst.Tm_begin ]);
        (None, [ Inst.Store { base = imm 0; offset = imm 0; src = imm 1 } ]);
        (None, [ Inst.Tm_commit ]);
        (None, [ Inst.Halt ]);
      ]
  in
  let c1 = assemble [ (None, [ Inst.Sleep ]) ] in
  let cfg = { (Config.default ~n_cores:2) with Config.watchdog = 500 } in
  let prog = Program.make ~images:[| c0; c1 |] ~mem_size:64 ~mem_init:[||] in
  let m = Machine.create cfg prog in
  match (Machine.run m).Machine.outcome with
  | Machine.Deadlock d ->
    Alcotest.(check bool) "core 0 waits for the commit round" true
      (d.Machine.d_cores.(0).Machine.d_wait = Some Machine.W_commit);
    Alcotest.(check bool) "blame points at the absent core 1" true
      (d.Machine.d_blame = Some (0, 1))
  | Machine.Finished | Machine.Out_of_cycles | Machine.Fault_limit _
  | Machine.Stopped _ ->
    Alcotest.fail "expected deadlock detection"

(* --- Tracing ------------------------------------------------------------------ *)

module Trace = Voltron_obs.Trace

let test_trace_events () =
  let master =
    assemble
      [
        (Some "top", [ Inst.Spawn { target = 1; entry = "worker" } ]);
        (None, [ Inst.Recv { sender = 1; dst = 5; kind = Inst.Rv_data } ]);
        (None, [ Inst.Halt ]);
      ]
  in
  let worker =
    assemble
      [
        (Some "worker", [ Inst.Mov { dst = 1; src = imm 3 } ]);
        (None, [ Inst.Send { target = 0; src = reg 1 } ]);
        (None, [ Inst.Sleep ]);
      ]
  in
  let prog =
    Program.make ~images:[| master; worker |] ~mem_size:1024 ~mem_init:[||]
  in
  let m = build_machine ~n_cores:2 ~fast_forward:false [| master; worker |] in
  let tracer = Trace.create () in
  Trace.attach m tracer prog;
  let _ = run_ok m in
  let events = Trace.events tracer in
  let has p = List.exists p events in
  Alcotest.(check bool) "spawn traced" true
    (has (function Trace.Spawned { by = 0; target = 1; _ } -> true | _ -> false));
  Alcotest.(check bool) "issues traced" true
    (has (function Trace.Issue _ -> true | _ -> false));
  Alcotest.(check bool) "recv stall traced" true
    (has (function
      | Trace.Stall { kind = Voltron_machine.Stats.Recv_data; _ } -> true
      | _ -> false));
  Alcotest.(check int) "nothing dropped" 0 (Trace.dropped tracer);
  (* Hotspots attribute issues to the right labels. *)
  let spots = Trace.hotspots tracer prog in
  Alcotest.(check bool) "top label hot" true
    (List.exists
       (fun h -> h.Trace.hs_label = "top" && h.Trace.hs_issues >= 3)
       spots);
  Alcotest.(check bool) "worker label hot" true
    (List.exists
       (fun h -> h.Trace.hs_core = 1 && h.Trace.hs_label = "worker")
       spots)

let test_trace_limit () =
  let image =
    assemble
      [
        (None, [ Inst.Mov { dst = 1; src = imm 0 } ]);
        (Some "loop", [ Inst.Alu { op = Inst.Add; dst = 1; src1 = reg 1; src2 = imm 1 } ]);
        (None, [ Inst.Pbr { btr = 0; target = "loop" } ]);
        (None, [ Inst.Cmp { op = Inst.Lt; dst = 2; src1 = reg 1; src2 = imm 100 } ]);
        (None, [ Inst.Br { btr = 0; pred = Some (reg 2); invert = false } ]);
        (None, [ Inst.Halt ]);
      ]
  in
  let m = build_machine ~fast_forward:false [| image |] in
  let tracer = Trace.create ~limit:10 () in
  Trace.attach m tracer
    (Program.make ~images:[| image |] ~mem_size:1024 ~mem_init:[||]);
  let _ = run_ok m in
  Alcotest.(check int) "stored capped" 10 (List.length (Trace.events tracer));
  Alcotest.(check bool) "dropped counted" true (Trace.dropped tracer > 0)

(* The timeline needs the per-cycle sweep: a fast-forward machine is
   refused rather than traced out of cycle order. *)
let test_trace_rejects_fast_forward () =
  let image = assemble [ (None, [ Inst.Halt ]) ] in
  let m = build_machine [| image |] in
  Alcotest.check_raises "fast-forward machine"
    (Invalid_argument
       "Trace.attach: the machine must be created with fast_forward = false")
    (fun () ->
      Trace.attach m (Trace.create ())
        (Program.make ~images:[| image |] ~mem_size:1024 ~mem_init:[||]))

(* --- More machine corner cases -------------------------------------------------- *)

let test_multi_hop_relay () =
  (* 4-core mesh: move a value 0 -> 1 -> 3 with a same-cycle relay chain
     (paper 3.1: multi-hop direct-mode moves via PUT/GET sequences). *)
  let switch m = [ Inst.Mode_switch m ] in
  let c0 =
    assemble
      [
        (None, [ Inst.Spawn { target = 1; entry = "w1" } ]);
        (None, [ Inst.Spawn { target = 2; entry = "w2" } ]);
        (None, [ Inst.Spawn { target = 3; entry = "w3" } ]);
        (None, switch Inst.Coupled);
        (None, [ Inst.Mov { dst = 1; src = imm 55 } ]);
        (None, [ Inst.Put { dir = Inst.East; src = reg 1 } ]);
        (None, [ Inst.Nop ]);
        (None, [ Inst.Nop ]);
        (None, switch Inst.Decoupled);
        (None, [ Inst.Recv { sender = 3; dst = 2; kind = Inst.Rv_data } ]);
        (None, [ Inst.Store { base = imm 0; offset = imm 0; src = reg 2 } ]);
        (None, [ Inst.Halt ]);
      ]
  in
  let c1 =
    assemble
      [
        (Some "w1", switch Inst.Coupled);
        (None, [ Inst.Nop ]);
        (None, [ Inst.Get { dir = Inst.West; dst = 5 } ]);
        (None, [ Inst.Put { dir = Inst.South; src = reg 5 } ]);
        (None, [ Inst.Nop ]);
        (None, switch Inst.Decoupled);
        (None, [ Inst.Sleep ]);
      ]
  in
  let c2 =
    assemble
      [
        (Some "w2", switch Inst.Coupled);
        (None, [ Inst.Nop ]);
        (None, [ Inst.Nop ]);
        (None, [ Inst.Nop ]);
        (None, [ Inst.Nop ]);
        (None, switch Inst.Decoupled);
        (None, [ Inst.Sleep ]);
      ]
  in
  let c3 =
    assemble
      [
        (Some "w3", switch Inst.Coupled);
        (None, [ Inst.Nop ]);
        (None, [ Inst.Nop ]);
        (None, [ Inst.Get { dir = Inst.North; dst = 7 } ]);
        (None, [ Inst.Alu { op = Inst.Add; dst = 8; src1 = reg 7; src2 = imm 1 } ]);
        (None, switch Inst.Decoupled);
        (None, [ Inst.Send { target = 0; src = reg 8 } ]);
        (None, [ Inst.Sleep ]);
      ]
  in
  let m = build_machine ~n_cores:4 [| c0; c1; c2; c3 |] in
  let _ = run_ok m in
  Alcotest.(check int) "relayed across two hops" 56
    (Voltron_mem.Memory.read (Machine.memory m) 0)

let test_lockstep_group_stall () =
  (* In coupled mode a cache miss on one core freezes the other: both end
     with identical busy counts even though only core 0 touches memory. *)
  let switch m = [ Inst.Mode_switch m ] in
  let body0 =
    List.init 6 (fun i ->
        (None, [ Inst.Load { dst = i + 1; base = imm (i * 64); offset = imm 0 } ]))
  in
  let c0 =
    assemble
      ([ (None, [ Inst.Spawn { target = 1; entry = "w" } ]); (None, switch Inst.Coupled) ]
      @ body0
      @ [ (None, switch Inst.Decoupled); (None, [ Inst.Halt ]) ])
  in
  let body1 = List.init 6 (fun i -> (None, [ Inst.Mov { dst = i + 1; src = imm i } ])) in
  let c1 =
    assemble
      ([ (Some "w", switch Inst.Coupled) ]
      @ body1
      @ [ (None, switch Inst.Decoupled); (None, [ Inst.Sleep ]) ])
  in
  let m = build_machine ~n_cores:2 ~mem_size:1024 [| c0; c1 |] in
  let _ = run_ok m in
  let st = Machine.stats m in
  let b0 = (Stats.core st 0).Stats.busy and b1 = (Stats.core st 1).Stats.busy in
  Alcotest.(check bool) "lock-step busy within 2 cycles" true (abs (b0 - b1) <= 2);
  Alcotest.(check bool) "partner inherits D-stalls" true
    ((Stats.core st 1).Stats.d_stall > 100)

let test_send_backpressure () =
  (* With channel capacity 1, back-to-back sends stall until drained. *)
  let c0 =
    assemble
      ([ (None, [ Inst.Spawn { target = 1; entry = "w" } ]) ]
      @ List.init 4 (fun i -> (None, [ Inst.Send { target = 1; src = imm i } ]))
      @ [
          (None, [ Inst.Recv { sender = 1; dst = 9; kind = Inst.Rv_sync } ]);
          (None, [ Inst.Halt ]);
        ])
  in
  let c1 =
    assemble
      ([ (Some "w", [ Inst.Alu { op = Inst.Div; dst = 1; src1 = imm 99; src2 = imm 7 } ]) ]
      @ List.init 4 (fun i ->
            (None, [ Inst.Recv { sender = 0; dst = i + 2; kind = Inst.Rv_data } ]))
      @ [
          (None, [ Inst.Store { base = imm 0; offset = imm 0; src = reg 5 } ]);
          (None, [ Inst.Send { target = 0; src = imm 1 } ]);
          (None, [ Inst.Sleep ]);
        ])
  in
  let cfg = { (Config.default ~n_cores:2) with Config.net_capacity = 1 } in
  let prog = Program.make ~images:[| c0; c1 |] ~mem_size:64 ~mem_init:[||] in
  let m = Machine.create cfg prog in
  (match (Machine.run m).Machine.outcome with
  | Machine.Finished -> ()
  | Machine.Out_of_cycles | Machine.Deadlock _ | Machine.Fault_limit _
  | Machine.Stopped _ ->
    Alcotest.fail "backpressure must drain, not deadlock");
  Alcotest.(check int) "last value delivered in order" 3
    (Voltron_mem.Memory.read (Machine.memory m) 0);
  let st = Machine.stats m in
  Alcotest.(check bool) "sender stalled on capacity" true
    ((Stats.core st 0).Stats.sync_stall > 0)

(* --- Energy model ------------------------------------------------------------- *)

module Energy = Voltron_machine.Energy

let test_energy_monotone () =
  (* More work costs more energy; the report is internally consistent. *)
  let run n =
    let body =
      List.concat
        (List.init n (fun i ->
             [ (None, [ Inst.Alu { op = Inst.Mul; dst = 2; src1 = imm (i + 1); src2 = imm 3 } ]) ]))
    in
    let image = assemble (body @ [ (None, [ Inst.Halt ]) ]) in
    let m = build_machine [| image |] in
    let _ = run_ok m in
    Energy.of_run ~stats:(Machine.stats m) ~coherence:(Machine.coherence m)
      ~network:(Machine.network m) ()
  in
  let small = run 5 and large = run 50 in
  Alcotest.(check bool) "consistent total" true
    (abs_float (small.Energy.e_total -. (small.Energy.e_dynamic +. small.Energy.e_static)) < 1e-9);
  Alcotest.(check bool) "more work, more energy" true
    (large.Energy.e_total > small.Energy.e_total);
  Alcotest.(check bool) "edp = total * cycles" true (large.Energy.edp > large.Energy.e_total)

(* [Machine.create] checks bundle widths from the counts [Image.finish]
   precomputed; an illegal bundle must still fail with [Bundle.check]'s own
   diagnostic, and NOPs must not count against the issue width. *)
let test_width_check () =
  let add = Inst.Alu { op = Inst.Add; dst = 1; src1 = imm 2; src2 = imm 3 } in
  let send = Inst.Send { target = 0; src = imm 1 } in
  let br = Inst.Br { btr = 0; pred = None; invert = false } in
  let expected bundle =
    match Voltron_isa.Bundle.check ~issue_width:1 ~comm_width:1 bundle with
    | () -> Alcotest.fail "bundle unexpectedly legal"
    | exception Invalid_argument msg -> msg
  in
  List.iter
    (fun bundle ->
      let image =
        assemble [ (None, [ Inst.Nop ]); (None, bundle); (None, [ Inst.Halt ]) ]
      in
      Alcotest.check_raises "same diagnostic" (Invalid_argument (expected bundle))
        (fun () -> ignore (build_machine [| image |])))
    [ [ add; add ]; [ send; send ]; [ br; br ]; [ add; Inst.Nop; Inst.Halt ] ];
  let image =
    assemble [ (None, [ add; Inst.Nop; Inst.Nop ]); (None, [ Inst.Halt ]) ]
  in
  let m = build_machine [| image |] in
  let _ = run_ok m in
  Alcotest.(check int) "NOPs ride along" 5 (Machine.reg m ~core:0 1)

let () =
  Alcotest.run "machine"
    [
      ( "single-core",
        [
          Alcotest.test_case "arith and store" `Quick test_single_core_arith;
          Alcotest.test_case "loop sum" `Quick test_loop_sum;
          Alcotest.test_case "load interlock" `Quick test_load_latency_interlock;
          Alcotest.test_case "width check" `Quick test_width_check;
        ] );
      ( "decoupled",
        [
          Alcotest.test_case "spawn/send/recv" `Quick test_spawn_send_recv;
          Alcotest.test_case "recv stall classes" `Quick test_recv_stall_classification;
        ] );
      ( "coupled",
        [
          Alcotest.test_case "put/get lock-step" `Quick test_coupled_put_get;
          Alcotest.test_case "bcast/getb branch" `Quick test_coupled_bcast_getb;
        ] );
      ( "tm",
        [
          Alcotest.test_case "clean commit" `Quick test_tm_commit_no_conflict;
          Alcotest.test_case "conflict rollback" `Quick test_tm_conflict_rollback;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "deadlock watchdog" `Quick test_deadlock_detected;
          Alcotest.test_case "coupled GET without PUT" `Quick
            test_deadlock_get_no_put;
          Alcotest.test_case "TM commit livelock" `Quick test_deadlock_tm_commit;
          Alcotest.test_case "coupled PUT into a full latch" `Quick
            test_deadlock_put_full_latch;
          Alcotest.test_case "coupled GET of a stale latch" `Quick
            test_deadlock_stale_get;
        ] );
      ( "trace",
        [
          Alcotest.test_case "events and hotspots" `Quick test_trace_events;
          Alcotest.test_case "limit" `Quick test_trace_limit;
          Alcotest.test_case "rejects fast-forward" `Quick
            test_trace_rejects_fast_forward;
        ] );
      ("energy", [ Alcotest.test_case "monotone" `Quick test_energy_monotone ]);
      ( "corners",
        [
          Alcotest.test_case "multi-hop relay" `Quick test_multi_hop_relay;
          Alcotest.test_case "group stall" `Quick test_lockstep_group_stall;
          Alcotest.test_case "send backpressure" `Quick test_send_backpressure;
        ] );
    ]
