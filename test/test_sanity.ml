(* Runtime invariant sanitizer tests.

   Two obligations, mirroring the fuzzer's self-tests: clean runs must
   stay clean (no false positives across the strategy matrix, and a
   sanitized run must not perturb the architectural numbers), and every
   fault class the sanitizer claims to catch must actually be caught when
   deliberately injected past the recovery machinery — a silently
   tampered message payload, a dropped in-flight message, a bit flip
   smuggled past ECC, and a TM rollback that leaks a buffered store. *)

module Sanity = Voltron_sanity.Sanity
module Run = Voltron.Run
module Machine = Voltron_machine.Machine
module Net = Voltron_net.Operand_network
module Memory = Voltron_mem.Memory
module Tm = Voltron_mem.Tm
module Coherence = Voltron_mem.Coherence
module Fault = Voltron_fault.Fault
module Config = Voltron_machine.Config
module Suite = Voltron_workloads.Suite
module Frontend = Voltron_lang.Frontend
module Driver = Voltron_compiler.Driver
module Blame = Voltron_obs.Blame
module Critpath = Voltron_obs.Critpath

(* --- Helpers -------------------------------------------------------------- *)

let report_exn m =
  match m.Run.sanity with
  | Some r -> r
  | None -> Alcotest.fail "sanitized run carries no sanity report"

let classes r = List.map fst r.Sanity.r_by_class

let has_class cls r = List.mem_assoc cls r.Sanity.r_by_class

let check_class name cls r =
  Alcotest.(check bool)
    (Printf.sprintf "%s: report has class %s (got: %s)" name cls
       (String.concat "," (classes r)))
    true (has_class cls r)

let stopped m =
  match m.Run.outcome with Run.Sanity_stopped _ -> true | _ -> false

(* Arm a one-shot sabotage from the machine's window hook; returns the
   cycle it fired on: the last of its window. [Run.simulate] attaches the
   sanitizer after the caller's hooks, so this one runs before the
   sanitizer's check of that same window. *)
let arm_once m f =
  let fired = ref (-1) in
  Machine.set_on_window m (fun ~from:_ ~upto ->
      if !fired < 0 && f () then fired := upto);
  fired

(* --- Policies ------------------------------------------------------------- *)

let test_policy_round_trip () =
  List.iter
    (fun p ->
      match Sanity.policy_of_string (Sanity.policy_name p) with
      | Ok p' -> Alcotest.(check bool) (Sanity.policy_name p) true (p = p')
      | Error e -> Alcotest.fail e)
    [ Sanity.Report; Sanity.Abort; Sanity.Recover ];
  Alcotest.(check bool) "bogus policy rejected" true
    (match Sanity.policy_of_string "bogus" with Error _ -> true | Ok _ -> false)

(* --- Clean runs stay clean ------------------------------------------------ *)

let test_clean_matrix () =
  let programs =
    List.map
      (fun (m : Suite.micro) -> (m.Suite.micro_name, m.Suite.micro_build ~scale:1.0 ()))
      Suite.micros
    @ [ ("gsmencode", (Suite.by_name "gsmencode").Suite.build ~scale:0.05 ()) ]
  in
  List.iter
    (fun (name, p) ->
      List.iter
        (fun choice ->
          List.iter
            (fun cores ->
              let m =
                Run.run ~choice ~sanitize:Sanity.Abort ~n_cores:cores p
              in
              let r = report_exn m in
              let label =
                Printf.sprintf "%s/%s/%d" name (Run.choice_name choice) cores
              in
              Alcotest.(check bool) (label ^ " completed") true (Run.completed m);
              Alcotest.(check bool) (label ^ " verified") true m.Run.verified;
              Alcotest.(check bool)
                (Printf.sprintf "%s clean (got: %s)" label
                   (String.concat "," (classes r)))
                true (Sanity.clean r))
            [ 2; 4 ])
        [ `Seq; `Tlp; `Llp; `Hybrid ])
    programs

(* The sanitizer must observe, never perturb: a sanitized run's
   architectural numbers are identical to the plain run's (it disables
   stall fast-forward, which is itself architecturally invisible). *)
let test_sanitized_run_is_invisible () =
  let p = (Suite.by_name "gsmencode").Suite.build ~scale:0.1 () in
  let plain = Run.run ~choice:`Hybrid ~n_cores:4 p in
  let sane = Run.run ~choice:`Hybrid ~sanitize:Sanity.Abort ~n_cores:4 p in
  Alcotest.(check int) "same cycles" plain.Run.cycles sane.Run.cycles;
  Alcotest.(check bool) "same stats" true (plain.Run.stats = sane.Run.stats);
  Alcotest.(check bool) "still verified" true sane.Run.verified;
  Alcotest.(check bool) "clean" true (Sanity.clean (report_exn sane))

(* Same obligation on the directory backend: the oracle states its rule
   over cache states, not protocol messages, so switching the coherence
   backend must change neither the numbers nor the verdict. Cycle and
   stats identity pins that the sanitizer stays architecturally invisible
   there too. *)
let test_sanitized_directory_is_invisible () =
  let p = (Suite.by_name "gsmencode").Suite.build ~scale:0.1 () in
  let tweak = Config.with_coherence Coherence.Directory in
  let plain = Run.run ~choice:`Hybrid ~tweak ~n_cores:4 p in
  let sane = Run.run ~choice:`Hybrid ~tweak ~sanitize:Sanity.Abort ~n_cores:4 p in
  Alcotest.(check int) "same cycles" plain.Run.cycles sane.Run.cycles;
  Alcotest.(check bool) "same stats" true (plain.Run.stats = sane.Run.stats);
  Alcotest.(check bool) "still verified" true sane.Run.verified;
  Alcotest.(check bool) "clean" true (Sanity.clean (report_exn sane))

(* --- Detection: coherence ------------------------------------------------- *)

(* An injected directory-protocol bug — one invalidation round silently
   skips a remote sharer, leaving its S copy to coexist with the writer's
   fresh M copy — must be stopped by the single-writer oracle at the very
   access that creates the pair. (test_mem drives the same backdoor at
   the hierarchy level; this is the live-machine proof.) *)
let test_detects_stale_sharer () =
  let p = (Suite.by_name "gsmencode").Suite.build ~scale:0.1 () in
  let prepare _ m = Coherence.test_inject_stale_sharer (Machine.coherence m) in
  let tweak = Config.with_coherence Coherence.Directory in
  let m =
    Run.run ~choice:`Hybrid ~prepare ~tweak ~sanitize:Sanity.Abort ~n_cores:4 p
  in
  let r = report_exn m in
  Alcotest.(check bool) "machine stopped at the violation" true (stopped m);
  check_class "stale sharer" "coherence-states" r

(* --- Detection: network --------------------------------------------------- *)

(* A silently corrupted in-flight payload (no bad-parity mark, so the
   retry machinery never sees it) must be flagged at delivery. *)
let test_detects_tampered_payload () =
  let p = Suite.micro_gzip_strands () in
  let prepare _ m =
    ignore (arm_once m (fun () -> Net.test_tamper_payload (Machine.network m)))
  in
  let m = Run.run ~choice:`Tlp ~prepare ~sanitize:Sanity.Abort ~n_cores:2 p in
  let r = report_exn m in
  Alcotest.(check bool) "machine stopped at the violation" true (stopped m);
  check_class "tampered payload" "msg-payload" r;
  match
    List.find_opt
      (fun v -> Sanity.kind_class v.Sanity.v_kind = "msg-payload")
      r.Sanity.r_recorded
  with
  | None -> Alcotest.fail "no recorded msg-payload violation"
  | Some v ->
    Alcotest.(check bool) "blame edge attached" true (v.Sanity.v_blame <> None)

(* A message deleted from the in-flight list must break conservation on
   the very cycle it disappears. *)
let test_detects_dropped_message () =
  let p = Suite.micro_gzip_strands () in
  let drop_cycle = ref (-1) in
  let prepare _ m =
    drop_cycle := -1;
    Machine.set_on_window m (fun ~from:_ ~upto ->
        if !drop_cycle < 0 && Net.test_drop (Machine.network m) then
          drop_cycle := upto)
  in
  let m = Run.run ~choice:`Tlp ~prepare ~sanitize:Sanity.Abort ~n_cores:2 p in
  let r = report_exn m in
  Alcotest.(check bool) "machine stopped at the violation" true (stopped m);
  check_class "dropped message" "msg-conservation" r;
  Alcotest.(check bool) "a message was dropped" true (!drop_cycle >= 0);
  match
    List.find_opt
      (fun v -> Sanity.kind_class v.Sanity.v_kind = "msg-conservation")
      r.Sanity.r_recorded
  with
  | None -> Alcotest.fail "no recorded msg-conservation violation"
  | Some v ->
    Alcotest.(check int) "detected on the drop cycle" !drop_cycle
      v.Sanity.v_cycle

(* --- Sanitized and observed ------------------------------------------------ *)

(* The sanitizer and a blame recorder on one machine, attached in the
   given order; [arm] runs once both are attached. *)
let sanitized_blame ~blame_first ~arm config compiled =
  let m = Machine.create config compiled.Driver.executable in
  let b, s =
    if blame_first then
      let b = Blame.attach m compiled in
      (b, Sanity.attach m)
    else
      let s = Sanity.attach m in
      (Blame.attach m compiled, s)
  in
  arm m;
  let result = Machine.run m in
  Sanity.finalize s ~completed:(result.Machine.outcome = Machine.Finished);
  (result.Machine.cycles, Sanity.report s, b)

(* Either attach order yields the same run, the same sanitizer report and
   the same blame record; returns that report. *)
let check_either_order ?(arm = ignore) label config compiled =
  let c1, r1, b1 = sanitized_blame ~blame_first:false ~arm config compiled in
  let c2, r2, b2 = sanitized_blame ~blame_first:true ~arm config compiled in
  Alcotest.(check int) (label ^ ": same cycles either order") c1 c2;
  Alcotest.(check bool) (label ^ ": same report either order") true (r1 = r2);
  for core = 0 to Blame.n_cores b1 - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "%s: same blame record either order, core %d" label core)
      true
      (Blame.intervals b1 core = Blame.intervals b2 core
      && Blame.deliveries b1 core = Blame.deliveries b2 core)
  done;
  r1

(* A sanitized run can also be observed: with the blame recorder attached
   it keeps the plain run's numbers and a clean report, and the critical
   path still spans every cycle. *)
let test_sanitized_and_blamed () =
  let p = (Suite.by_name "gsmencode").Suite.build ~scale:0.1 () in
  let config = Config.default ~n_cores:4 in
  let compiled = Driver.compile ~machine:config ~choice:`Hybrid p in
  let plain, () = Run.simulate ~attach:ignore config compiled in
  let sane, b =
    Run.simulate ~sanitize:Sanity.Report
      ~attach:(fun m -> Blame.attach m compiled)
      config compiled
  in
  Alcotest.(check int) "same cycles" plain.Run.cycles sane.Run.cycles;
  Alcotest.(check bool) "same stats" true (plain.Run.stats = sane.Run.stats);
  Alcotest.(check bool) "clean" true (Sanity.clean (report_exn sane));
  Alcotest.(check int) "critical path = cycles" sane.Run.cycles
    (Critpath.length (Critpath.compute b));
  ignore (check_either_order "gsmencode" config compiled)

(* The dropped-message case with the blame recorder also attached: still
   caught, on the drop cycle. *)
let test_dropped_message_blamed () =
  let p = Suite.micro_gzip_strands () in
  let drop_cycle = ref (-1) in
  let arm m =
    drop_cycle := -1;
    Machine.set_on_window m (fun ~from:_ ~upto ->
        if !drop_cycle < 0 && Net.test_drop (Machine.network m) then
          drop_cycle := upto)
  in
  let prepare c m =
    ignore (Blame.attach m c);
    arm m
  in
  let m = Run.run ~choice:`Tlp ~prepare ~sanitize:Sanity.Abort ~n_cores:2 p in
  let r = report_exn m in
  Alcotest.(check bool) "machine stopped at the violation" true (stopped m);
  Alcotest.(check bool) "a message was dropped" true (!drop_cycle >= 0);
  (match
     List.find_opt
       (fun v -> Sanity.kind_class v.Sanity.v_kind = "msg-conservation")
       r.Sanity.r_recorded
   with
  | None -> Alcotest.fail "no recorded msg-conservation violation"
  | Some v ->
    Alcotest.(check int) "detected on the drop cycle" !drop_cycle
      v.Sanity.v_cycle);
  let config = Config.default ~n_cores:2 in
  check_class "dropped message, either order" "msg-conservation"
    (check_either_order ~arm "dropped message" config
       (Driver.compile ~machine:config ~choice:`Tlp p))

(* --- Detection: memory ---------------------------------------------------- *)

(* A word rewritten behind ECC's back (no syndrome, so correction and
   scrub never fire) must be caught by the shadow at the next load of
   that address — array [a] lives at base 0 and is re-read every
   iteration, so the tamper is observed promptly and located exactly. *)
let tamper_src =
  "array a[8];\n\
   array out[8];\n\
   region main {\n\
  \  var acc = 0;\n\
  \  for (i = 0; i < 300; i += 1) {\n\
  \    acc = (acc + a[(i & 7)]);\n\
  \  }\n\
  \  out[0] = acc;\n\
   }\n"

let test_detects_mem_tamper () =
  let p = Frontend.parse_string ~name:"tamper" tamper_src in
  let prepare _ m =
    let mem = Machine.memory m in
    ignore
      (arm_once m (fun () ->
           Memory.test_tamper mem 0 (Memory.peek mem 0 lxor 1);
           true))
  in
  let m = Run.run ~choice:`Seq ~prepare ~sanitize:Sanity.Abort ~n_cores:2 p in
  let r = report_exn m in
  Alcotest.(check bool) "machine stopped at the violation" true (stopped m);
  check_class "mem tamper" "read-divergence" r;
  match
    List.find_opt
      (fun v -> Sanity.kind_class v.Sanity.v_kind = "read-divergence")
      r.Sanity.r_recorded
  with
  | None -> Alcotest.fail "no recorded read-divergence violation"
  | Some v ->
    Alcotest.(check (option int)) "locates the tampered address" (Some 0)
      v.Sanity.v_addr

(* Under Report the same tamper is counted but the run is not stopped. *)
let test_report_policy_does_not_stop () =
  let p = Frontend.parse_string ~name:"tamper" tamper_src in
  let prepare _ m =
    let mem = Machine.memory m in
    ignore
      (arm_once m (fun () ->
           Memory.test_tamper mem 0 (Memory.peek mem 0 lxor 1);
           true))
  in
  let m = Run.run ~choice:`Seq ~prepare ~sanitize:Sanity.Report ~n_cores:2 p in
  let r = report_exn m in
  Alcotest.(check bool) "run completed" true (Run.completed m);
  Alcotest.(check bool) "violations counted" true (r.Sanity.r_total > 0);
  check_class "report-mode tamper" "read-divergence" r

(* --- Detection: transactional memory -------------------------------------- *)

(* A broken rollback — one buffered store leaking to memory on abort —
   is invisible to the recovery machinery (the re-executed chunk usually
   rewrites the same address) but must be caught by the abort audit at
   the abort itself, before re-execution can mask it. *)
let test_detects_tm_leak () =
  (* 164.gzip is the suite's statistical-DOALL workload: under [`Llp] its
     chunks run as transactions, so a spurious abort (rate 1.0) gives the
     armed leak a buffered store to betray. *)
  let p = (Suite.by_name "164.gzip").Suite.build ~scale:0.05 () in
  let fault = { Fault.disabled with Fault.fault_seed = 5; tm_abort_rate = 1.0 } in
  let tweak c = { c with Config.fault } in
  let prepare _ m = Tm.test_leak_next_abort (Machine.tm m) in
  let m =
    Run.run ~choice:`Llp ~tweak ~prepare ~sanitize:Sanity.Abort ~n_cores:2 p
  in
  let r = report_exn m in
  Alcotest.(check bool) "machine stopped at the violation" true (stopped m);
  check_class "tm leak" "tm-leak" r;
  match
    List.find_opt
      (fun v -> Sanity.kind_class v.Sanity.v_kind = "tm-leak")
      r.Sanity.r_recorded
  with
  | None -> Alcotest.fail "no recorded tm-leak violation"
  | Some v ->
    Alcotest.(check bool) "blamed on a core" true (v.Sanity.v_core <> None);
    Alcotest.(check bool) "locates an address" true (v.Sanity.v_addr <> None)

(* --- Recover policy drives the degradation ladder ------------------------- *)

let test_recover_degrades_to_completion () =
  let p = Suite.micro_gzip_strands () in
  (* Every rung re-arms the tamper; the serial floor has no queue traffic
     to tamper (and demotes Recover to Report anyway), so the ladder must
     bottom out in a completed, verified run. *)
  let prepare _ m =
    ignore (arm_once m (fun () -> Net.test_tamper_payload (Machine.network m)))
  in
  let r =
    Run.run_resilient ~choice:`Tlp ~prepare ~sanitize:Sanity.Recover ~n_cores:2 p
  in
  Alcotest.(check bool) "ladder degraded" true r.Run.degraded;
  Alcotest.(check bool) "multiple attempts" true (List.length r.Run.attempts >= 2);
  Alcotest.(check bool) "final run completed" true (Run.completed r.Run.final);
  Alcotest.(check bool) "final run verified" true r.Run.final.Run.verified

(* --- Plumbing: divergence class and JSON ---------------------------------- *)

let test_divergence_class () =
  let case = { Run.d_strategy = `Tlp; d_cores = 2; d_coherence = Coherence.Snoop } in
  let p = Suite.micro_gsm_ilp () in
  let m = Run.run ~choice:`Ilp ~sanitize:Sanity.Abort ~n_cores:2 p in
  let r = report_exn m in
  let d =
    Run.Sanity_violation
      { sv_case = case; sv_fast_forward = true; sv_report = r }
  in
  Alcotest.(check string) "class tag" "sanitizer" (Run.divergence_class d);
  Alcotest.(check bool) "renders" true
    (String.length (Run.divergence_to_string d) > 0)

let test_report_json () =
  let p = Suite.micro_gsm_ilp () in
  let m = Run.run ~sanitize:Sanity.Abort ~n_cores:2 p in
  let r = report_exn m in
  let s = Voltron_obs.Json.to_string (Sanity.report_to_json r) in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "JSON mentions %s" needle)
        true
        (let rec find i =
           i + String.length needle <= String.length s
           && (String.sub s i (String.length needle) = needle || find (i + 1))
         in
         find 0))
    [ "policy"; "abort"; "total"; "violations" ]

let () =
  Alcotest.run "sanity"
    [
      ("policy", [ Alcotest.test_case "round trip" `Quick test_policy_round_trip ]);
      ( "clean",
        [
          Alcotest.test_case "strategy matrix stays clean" `Slow test_clean_matrix;
          Alcotest.test_case "sanitizer is architecturally invisible" `Quick
            test_sanitized_run_is_invisible;
          Alcotest.test_case "invisible on the directory backend" `Quick
            test_sanitized_directory_is_invisible;
        ] );
      ( "detection",
        [
          Alcotest.test_case "stale sharer stopped" `Quick
            test_detects_stale_sharer;
          Alcotest.test_case "tampered payload" `Quick test_detects_tampered_payload;
          Alcotest.test_case "dropped message" `Quick test_detects_dropped_message;
          Alcotest.test_case "memory tamper past ECC" `Quick test_detects_mem_tamper;
          Alcotest.test_case "report policy keeps running" `Quick
            test_report_policy_does_not_stop;
          Alcotest.test_case "tm rollback leak" `Quick test_detects_tm_leak;
        ] );
      ( "observed",
        [
          Alcotest.test_case "sanitized run with blame" `Quick
            test_sanitized_and_blamed;
          Alcotest.test_case "dropped message with blame" `Quick
            test_dropped_message_blamed;
        ] );
      ( "recover",
        [
          Alcotest.test_case "ladder runs to completion" `Quick
            test_recover_degrades_to_completion;
        ] );
      ( "plumbing",
        [
          Alcotest.test_case "divergence class" `Quick test_divergence_class;
          Alcotest.test_case "report JSON" `Quick test_report_json;
        ] );
    ]
