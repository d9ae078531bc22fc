(* End-to-end compiler tests: build small HIR programs, compile them under
   every strategy and core count, simulate, and check the final memory
   image matches the reference interpreter (the oracle). *)

module B = Voltron_ir.Builder
module Inst = Voltron_isa.Inst
module Config = Voltron_machine.Config
module Driver = Voltron_compiler.Driver
module Run = Voltron.Run

let imm = B.imm

(* Simulate a compiled program and fail the test unless it completes with
   the oracle's memory image; its cycle count. *)
let verified_cycles ?(what = "run") machine compiled =
  let m, () = Run.simulate ~attach:ignore machine compiled in
  (match m.Run.outcome with
  | Run.Completed when not m.Run.verified ->
    Alcotest.failf "%s: checksum mismatch: oracle %x, machine %x" what
      compiled.Driver.oracle_checksum m.Run.checksum
  | Run.Completed -> ()
  | o -> Alcotest.failf "%s: %s" what (Run.outcome_to_string o));
  m.Run.cycles

(* p1: straight-line arithmetic with stores. *)
let prog_straight () =
  let b = B.create "straight" in
  let out = B.array b ~name:"out" ~size:64 () in
  B.region b "main" (fun () ->
      let x = B.add b (imm 3) (imm 4) in
      let y = B.mul b x (imm 5) in
      let z = B.sub b y (imm 1) in
      let w = B.binop b Inst.Xor y z in
      B.store b out (imm 0) y;
      B.store b out (imm 1) z;
      B.store b out (imm 2) w;
      let q = B.binop b Inst.Div z (imm 3) in
      B.store b out (imm 3) q);
  B.finish b

(* p2: counted loop with an accumulator and an output array (DOALL with
   accumulator expansion). *)
let prog_loop_sum () =
  let b = B.create "loop_sum" in
  let src = B.array b ~name:"src" ~size:256 ~init:(fun i -> (i * 7) mod 23) () in
  let dst = B.array b ~name:"dst" ~size:256 () in
  let out = B.array b ~name:"out" ~size:8 () in
  B.region b "main" (fun () ->
      let acc = B.fresh b in
      B.assign b acc (Voltron_ir.Hir.Operand (imm 0));
      B.for_ b ~from:(imm 0) ~limit:(imm 256) (fun i ->
          let v = B.load b src i in
          let v2 = B.mul b v v in
          B.store b dst i v2;
          B.assign b acc (Voltron_ir.Hir.Alu (Inst.Add, Voltron_ir.Hir.Reg acc, v2)));
      B.store b out (imm 0) (Voltron_ir.Hir.Reg acc));
  B.finish b

(* p3: loop with control flow inside the body. *)
let prog_branchy () =
  let b = B.create "branchy" in
  let src = B.array b ~name:"src" ~size:128 ~init:(fun i -> i * 13 mod 31) () in
  let dst = B.array b ~name:"dst" ~size:128 () in
  B.region b "main" (fun () ->
      B.for_ b ~from:(imm 0) ~limit:(imm 128) (fun i ->
          let v = B.load b src i in
          let c = B.cmp b Inst.Gt v (imm 15) in
          B.if_ b c
            (fun () ->
              let big = B.mul b v (imm 3) in
              B.store b dst i big)
            (fun () ->
              let small = B.add b v (imm 100) in
              B.store b dst i small)));
  B.finish b

(* p4: do-while pointer-chase style loop (not DOALL). *)
let prog_dowhile () =
  let b = B.create "dowhile" in
  let data = B.array b ~name:"data" ~size:64 ~init:(fun i -> if i = 40 then 0 else (i + 3) mod 64) () in
  let out = B.array b ~name:"out" ~size:4 () in
  B.region b "main" (fun () ->
      let p = B.fresh b in
      let count = B.fresh b in
      B.assign b p (Voltron_ir.Hir.Operand (imm 0));
      B.assign b count (Voltron_ir.Hir.Operand (imm 0));
      B.do_while b (fun () ->
          let next = B.load b data (Voltron_ir.Hir.Reg p) in
          B.assign b p (Voltron_ir.Hir.Operand next);
          B.assign b count
            (Voltron_ir.Hir.Alu (Inst.Add, Voltron_ir.Hir.Reg count, imm 1));
          B.cmp b Inst.Ne next (imm 0));
      B.store b out (imm 0) (Voltron_ir.Hir.Reg p);
      B.store b out (imm 1) (Voltron_ir.Hir.Reg count));
  B.finish b

(* p5: two independent load streams combined — the strands/gzip shape. *)
let prog_streams () =
  let b = B.create "streams" in
  let s1 = B.array b ~name:"s1" ~size:512 ~init:(fun i -> i * 3) () in
  let s2 = B.array b ~name:"s2" ~size:512 ~init:(fun i -> i * 5) () in
  let dst = B.array b ~name:"dst" ~size:512 () in
  B.region b "main" (fun () ->
      B.for_ b ~from:(imm 0) ~limit:(imm 512) (fun i ->
          let a = B.load b s1 i in
          let c = B.load b s2 i in
          let x = B.mul b a (imm 7) in
          let y = B.mul b c (imm 9) in
          let z = B.add b x y in
          B.store b dst i z));
  B.finish b

(* p6: multiple regions with memory handoff between them. *)
let prog_multi_region () =
  let b = B.create "multi" in
  let a1 = B.array b ~name:"a1" ~size:128 ~init:(fun i -> i) () in
  let a2 = B.array b ~name:"a2" ~size:128 () in
  let out = B.array b ~name:"out" ~size:8 () in
  B.region b "phase1" (fun () ->
      B.for_ b ~from:(imm 0) ~limit:(imm 128) (fun i ->
          let v = B.load b a1 i in
          B.store b a2 i (B.mul b v v)));
  B.region b "phase2" (fun () ->
      let acc = B.fresh b in
      B.assign b acc (Voltron_ir.Hir.Operand (imm 0));
      B.for_ b ~from:(imm 0) ~limit:(imm 128) (fun i ->
          let v = B.load b a2 i in
          B.assign b acc (Voltron_ir.Hir.Alu (Inst.Add, Voltron_ir.Hir.Reg acc, v)));
      B.store b out (imm 0) (Voltron_ir.Hir.Reg acc));
  B.finish b

(* p7: loop with a genuine cross-iteration memory recurrence (must never
   be chunked as DOALL). *)
let prog_recurrence () =
  let b = B.create "recurrence" in
  let a = B.array b ~name:"a" ~size:128 ~init:(fun i -> if i = 0 then 1 else 0) () in
  B.region b "main" (fun () ->
      B.for_ b ~from:(imm 1) ~limit:(imm 128) (fun i ->
          let prev = B.load b a (B.sub b i (imm 1)) in
          let v = B.add b (B.mul b prev (imm 3) ) (imm 1) in
          let v = B.binop b Inst.And v (imm 0xffff) in
          B.store b a i v));
  B.finish b

let programs =
  [
    ("straight", prog_straight);
    ("loop_sum", prog_loop_sum);
    ("branchy", prog_branchy);
    ("dowhile", prog_dowhile);
    ("streams", prog_streams);
    ("multi_region", prog_multi_region);
    ("recurrence", prog_recurrence);
  ]

let choices : (string * Voltron_compiler.Select.choice) list =
  [ ("seq", `Seq); ("ilp", `Ilp); ("tlp", `Tlp); ("llp", `Llp); ("hybrid", `Hybrid) ]

let check_one prog_f choice n_cores () =
  let p = prog_f () in
  let machine = Config.default ~n_cores in
  let compiled = Driver.compile ~machine ~choice p in
  Alcotest.(check bool) "ran" true (verified_cycles machine compiled > 0)

let matrix_tests =
  List.concat_map
    (fun (pname, pf) ->
      List.concat_map
        (fun (cname, choice) ->
          List.map
            (fun cores ->
              Alcotest.test_case
                (Printf.sprintf "%s/%s/%dc" pname cname cores)
                `Quick
                (check_one pf choice cores))
            [ 1; 2; 4 ])
        choices)
    programs

(* [Run.simulate] is the one judgement of a compiled program: [Run.run] is
   compile-then-simulate, and a capped or miscompiled run comes back as a
   judged measurement, not an exception. *)
let test_simulate_judges () =
  let p = (Voltron_workloads.Suite.by_name "cjpeg").build ~scale:0.25 () in
  let machine = Config.default ~n_cores:4 in
  let compiled = Driver.compile ~machine ~choice:`Hybrid p in
  let simulate machine compiled =
    fst (Run.simulate ~attach:ignore machine compiled)
  in
  let judged (m : Run.measurement) = (m.cycles, m.checksum, m.verified) in
  let m = simulate machine compiled in
  Alcotest.(check bool) "verified" true m.Run.verified;
  Alcotest.(check (triple int int bool))
    "simulate = run" (judged (Run.run ~n_cores:4 p)) (judged m);
  let capped = simulate { machine with Config.max_cycles = 10 } compiled in
  Alcotest.(check bool) "cycle-capped" true (capped.Run.outcome = Run.Cycle_capped);
  Alcotest.(check bool) "capped not verified" false capped.Run.verified;
  let wrong =
    simulate machine
      { compiled with Driver.oracle_checksum = compiled.Driver.oracle_checksum + 1 }
  in
  Alcotest.(check bool) "completed" true (Run.completed wrong);
  Alcotest.(check bool) "wrong oracle not verified" false wrong.Run.verified;
  Alcotest.(check int) "checksum is the machine's" m.Run.checksum wrong.Run.checksum

(* Speedup sanity: parallelisable programs should not slow down much, and
   DOALL-friendly ones should speed up on 4 cores. *)
let cycles_of p choice n_cores =
  let machine = Config.default ~n_cores in
  let compiled = Driver.compile ~machine ~choice p in
  verified_cycles machine compiled

let test_llp_speedup () =
  let base = cycles_of (prog_streams ()) `Seq 1 in
  let par = cycles_of (prog_streams ()) `Llp 4 in
  let speedup = float_of_int base /. float_of_int par in
  if speedup < 1.5 then
    Alcotest.fail (Printf.sprintf "LLP speedup too low: %.2f" speedup)

let test_recurrence_not_doall () =
  let p = prog_recurrence () in
  let machine = Config.default ~n_cores:4 in
  let profile = Voltron_analysis.Profile.collect p in
  let plan = Voltron_compiler.Select.plan ~machine ~profile `Llp p in
  List.iter
    (fun (pr : Voltron_compiler.Select.planned_region) ->
      match pr.Voltron_compiler.Select.pr_strategy with
      | Voltron_compiler.Codegen.Doall _ ->
        Alcotest.fail "recurrence loop must not be classified DOALL"
      | _ -> ())
    plan

(* --- Selection heuristics ------------------------------------------------------- *)

module Select = Voltron_compiler.Select

let plan_of p choice =
  let machine = Config.default ~n_cores:4 in
  let profile = Voltron_analysis.Profile.collect p in
  Select.plan ~machine ~profile choice p

let strategy_names p choice =
  List.map
    (fun (r : Select.planned_region) -> Select.strategy_name r.Select.pr_strategy)
    (plan_of p choice)

let test_select_tiny_region_stays_serial () =
  let b = B.create "tiny" in
  let out = B.array b ~name:"out" ~size:4 () in
  B.region b "glue" (fun () -> B.store b out (imm 0) (B.add b (imm 1) (imm 2)));
  let p = B.finish b in
  Alcotest.(check (list string)) "tiny region serial" [ "seq" ]
    (strategy_names p `Hybrid)

let test_select_small_trip_not_doall () =
  (* A 4-iteration DOALL loop is below the trip threshold (2 x cores). *)
  let b = B.create "smalltrip" in
  let a = B.array b ~name:"a" ~size:64 ~init:(fun i -> i) () in
  B.region b "main" (fun () ->
      B.for_ b ~from:(imm 0) ~limit:(imm 4) (fun i ->
          (* enough body weight to clear the tiny-region bar *)
          let v = B.load b a i in
          let rec grind acc k =
            if k = 0 then acc else grind (B.mul b acc (imm 3)) (k - 1)
          in
          B.store b a i (grind v 8)));
  let p = B.finish b in
  List.iter
    (fun name ->
      Alcotest.(check bool) ("not doall: " ^ name) true
        (name = "seq" || name = "ilp" || name = "strands" || name = "dswp"))
    (strategy_names p `Hybrid)

let test_select_forced_llp_degrades_to_seq () =
  (* Under forced LLP, non-DOALL regions run serial. *)
  let p = prog_dowhile () in
  List.iter
    (fun name -> Alcotest.(check string) "seq fallback" "seq" name)
    (strategy_names p `Llp)

let test_select_miss_fraction_drives_strands () =
  let profile_of p = Voltron_analysis.Profile.collect p in
  (* Missy region: big array, strided; resident region: small array. *)
  let missy =
    let b = B.create "missy" in
    let a = B.array b ~name:"a" ~size:8192 ~init:(fun i -> i) () in
    B.region b "m" (fun () ->
        let x = B.fresh b in
        B.assign b x (Voltron_ir.Hir.Operand (imm 0));
        B.for_ b ~from:(imm 0) ~limit:(imm 512) (fun i ->
            let j = B.binop b Inst.And (B.mul b i (imm 8)) (imm 8191) in
            let v = B.load b a j in
            B.assign b x (Voltron_ir.Hir.Operand (B.binop b Inst.Xor (Voltron_ir.Hir.Reg x) v)));
        B.store b a (imm 0) (Voltron_ir.Hir.Reg x));
    B.finish b
  in
  let region = List.hd missy.Voltron_ir.Hir.regions in
  let frac =
    Select.miss_fraction ~profile:(profile_of missy) region.Voltron_ir.Hir.stmts
  in
  Alcotest.(check bool) (Printf.sprintf "missy fraction %.2f high" frac) true
    (frac > 0.15)

(* --- Scheduler invariants ------------------------------------------------------ *)

(* In coupled mode every block must occupy the same number of bundles on
   every core (lock-step), with the BR in the final bundle of each. *)
let test_coupled_blocks_aligned () =
  let p = prog_streams () in
  let machine = Config.default ~n_cores:4 in
  let lay = Voltron_ir.Layout.compute p in
  let lctx = Voltron_ir.Lower.make_ctx ~layout:lay ~first_vreg:p.Voltron_ir.Hir.n_vregs in
  let region = List.hd p.Voltron_ir.Hir.regions in
  let cfg = Voltron_ir.Lower.region lctx region.Voltron_ir.Hir.stmts in
  let memdep =
    Voltron_analysis.Memdep.create ~region_stmts:region.Voltron_ir.Hir.stmts cfg
  in
  let dg = Voltron_analysis.Depgraph.build ~cfg ~memdep ~latency:Config.latency in
  let partition = Voltron_compiler.Partition.bug ~n_cores:4 ~comm_latency:1 ~dg ~cfg in
  let sched =
    Voltron_compiler.Sched.schedule_region ~machine ~cfg ~dg ~partition
      ~mode:Voltron_isa.Inst.Coupled
  in
  let participants = sched.Voltron_compiler.Sched.participants in
  Alcotest.(check int) "all cores participate" 4 (List.length participants);
  Array.iteri
    (fun bi _ ->
      let lengths =
        List.map
          (fun core ->
            List.length sched.Voltron_compiler.Sched.block_code.(core).(bi))
          participants
      in
      match lengths with
      | first :: rest ->
        List.iter
          (fun l ->
            Alcotest.(check int) (Printf.sprintf "block %d aligned" bi) first l)
          rest
      | [] -> Alcotest.fail "no participants")
    cfg.Voltron_ir.Cfg.blocks;
  (* Bundles respect the configured widths. *)
  List.iter
    (fun core ->
      Array.iter
        (fun bundles ->
          List.iter
            (fun b ->
              Alcotest.(check bool) "legal bundle" true
                (Voltron_isa.Bundle.legal ~issue_width:1 ~comm_width:1 b))
            bundles)
        sched.Voltron_compiler.Sched.block_code.(core))
    participants

(* Every branch instance gets exactly one delivery of its condition, of the
   definition that reaches it: each non-home participant receives the
   condition once in the branch's block (GETB coupled, RECV(pred)
   decoupled), and the home core sends it only after the block's last
   definition. The two shapes redefine the condition in the branch's
   block, once after an earlier definition in the same block and once
   after a definition in an earlier block. *)
let test_branch_condition_delivered_once () =
  let shapes =
    [
      "array a[8];\nregion r {\n  var v1 = 0;\n  v1 = 2;\n  if (v1) {\n    a[0] = 1;\n  }\n}\n";
      "array a[8];\nregion r {\n  var v8 = 0;\n  if (a[3]) {\n  }\n  v8 = (-1);\n\
       \  if (v8) {\n    a[0] = 1;\n  }\n}\n";
    ]
  in
  let check_shape src ~n_cores ~mode =
    let p = Voltron_lang.Frontend.parse_string ~name:"branch_cond" src in
    let machine = Config.default ~n_cores in
    let lay = Voltron_ir.Layout.compute p in
    let lctx = Voltron_ir.Lower.make_ctx ~layout:lay ~first_vreg:p.Voltron_ir.Hir.n_vregs in
    let region = List.hd p.Voltron_ir.Hir.regions in
    let cfg = Voltron_ir.Lower.region lctx region.Voltron_ir.Hir.stmts in
    let memdep =
      Voltron_analysis.Memdep.create ~region_stmts:region.Voltron_ir.Hir.stmts cfg
    in
    let dg = Voltron_analysis.Depgraph.build ~cfg ~memdep ~latency:Config.latency in
    (* Every op on core 0; the other cores only run the replicated BRs. *)
    let partition =
      {
        Voltron_compiler.Partition.core_of =
          Array.make (Array.length dg.Voltron_analysis.Depgraph.ops) 0;
        participants = List.init n_cores Fun.id;
      }
    in
    let sched = Voltron_compiler.Sched.schedule_region ~machine ~cfg ~dg ~partition ~mode in
    let what = Format.asprintf "%a, %d cores" Inst.pp_mode mode n_cores in
    let checked = ref 0 in
    Array.iteri
      (fun bi (block : Voltron_ir.Cfg.block) ->
        match block.Voltron_ir.Cfg.b_term with
        | Voltron_ir.Cfg.Branch { cond; _ }
          when List.exists
                 (fun (op : Voltron_ir.Cfg.lop) -> Inst.defs op.Voltron_ir.Cfg.inst = [ cond ])
                 block.Voltron_ir.Cfg.b_ops ->
          incr checked;
          let code c = sched.Voltron_compiler.Sched.block_code.(c).(bi) in
          (* Bundle positions on core [c] holding an op that [p] accepts. *)
          let where c p =
            List.concat
              (List.mapi (fun k bundle -> if List.exists p bundle then [ k ] else []) (code c))
          in
          let last_def =
            List.fold_left max (-1)
              (where 0 (fun i ->
                   Inst.defs i = [ cond ]
                   && Inst.unit_class i <> Inst.Commun))
          in
          List.iter
            (fun k ->
              if k <= last_def then
                Alcotest.failf "%s, block %d: r%d sent in bundle %d, last defined in %d" what bi
                  cond k last_def)
            (where 0 (function
              | Inst.Bcast { src = Inst.Reg r } | Inst.Send { src = Inst.Reg r; _ } -> r = cond
              | _ -> false));
          for c = 1 to n_cores - 1 do
            let receives =
              List.length
                (List.filter
                   (function
                     | Inst.Getb { dst } | Inst.Recv { dst; kind = Inst.Rv_pred; _ } -> dst = cond
                     | _ -> false)
                   (List.concat (code c)))
            in
            Alcotest.(check int)
              (Printf.sprintf "%s, block %d: core %d receives r%d once" what bi c cond)
              1 receives
          done
        | _ -> ())
      cfg.Voltron_ir.Cfg.blocks;
    Alcotest.(check bool) (what ^ ": a redefined branch condition was checked") true (!checked > 0)
  in
  List.iter
    (fun src ->
      List.iter
        (fun mode ->
          List.iter (fun n_cores -> check_shape src ~n_cores ~mode) [ 2; 4 ])
        [ Inst.Coupled; Inst.Decoupled ])
    shapes

let test_wide_issue_schedules_pack () =
  (* With issue width 4, the sequential schedule of a wide expression tree
     is much shorter than with width 1. *)
  let p = prog_straight () in
  let cycles width =
    let machine =
      { (Config.default ~n_cores:1) with Config.issue_width = width }
    in
    let compiled = Driver.compile ~machine ~choice:`Seq p in
    verified_cycles machine compiled
  in
  let narrow = cycles 1 and wide = cycles 4 in
  Alcotest.(check bool)
    (Printf.sprintf "wide (%d) beats narrow (%d)" wide narrow)
    true (wide < narrow)

(* --- Optimisation passes ------------------------------------------------------ *)

module Opt = Voltron_compiler.Opt
module Hir = Voltron_ir.Hir

let checksum p = (Voltron_ir.Interp.run p).Voltron_ir.Interp.checksum

let count_node pred p =
  let n = ref 0 in
  List.iter
    (fun (r : Hir.region) ->
      Hir.iter_stmts (fun s -> if pred s.Hir.node then incr n) r.Hir.stmts)
    p.Hir.regions;
  !n

let is_if = function Hir.If _ -> true | _ -> false

let prog_with_branches () =
  let b = B.create "branches" in
  let src = B.array b ~name:"src" ~size:128 ~init:(fun i -> (i * 13) mod 31) () in
  let dst = B.array b ~name:"dst" ~size:128 () in
  B.region b "main" (fun () ->
      B.for_ b ~from:(imm 0) ~limit:(imm 128) (fun i ->
          let v = B.load b src i in
          let c = B.cmp b Inst.Gt v (imm 15) in
          let t = B.fresh b in
          B.if_ b c
            (fun () -> B.assign b t (Hir.Alu (Inst.Mul, v, imm 3)))
            (fun () -> B.assign b t (Hir.Alu (Inst.Add, v, imm 100)));
          B.store b dst i (Hir.Reg t)));
  B.finish b

let test_if_conversion_removes_branches () =
  let p = prog_with_branches () in
  let q = Opt.program p in
  Alcotest.(check bool) "had an if" true (count_node is_if p > 0);
  Alcotest.(check int) "ifs converted" 0 (count_node is_if q);
  Alcotest.(check int) "same semantics" (checksum p) (checksum q)

let test_if_conversion_skips_impure () =
  (* Branches containing stores must not be converted. *)
  let p = prog_branchy () in
  let q = Opt.program p in
  Alcotest.(check bool) "store-bearing if kept" true (count_node is_if q > 0);
  Alcotest.(check int) "same semantics" (checksum p) (checksum q)

let test_unroll_semantics_and_shape () =
  let p = prog_loop_sum () in
  let q = Opt.program ~options:{ Opt.none with Opt.unroll = 4 } p in
  Alcotest.(check int) "same semantics" (checksum p) (checksum q);
  (* The unrolled loop carries 4 body copies: more statements. *)
  let count p = count_node (fun _ -> true) p in
  Alcotest.(check bool) "bigger body" true (count q > count p);
  (* Non-dividing factors leave the loop alone. *)
  let r = Opt.program ~options:{ Opt.none with Opt.unroll = 7 } p in
  Alcotest.(check int) "7 does not divide 256... wait it doesn't" (count p) (count r)

let test_dce_removes_dead () =
  let b = B.create "dead" in
  let out = B.array b ~name:"out" ~size:4 () in
  B.region b "main" (fun () ->
      let live = B.add b (imm 1) (imm 2) in
      let _dead = B.mul b (imm 3) (imm 4) in
      let _dead2 = B.add b _dead (imm 1) in
      B.store b out (imm 0) live);
  let p = B.finish b in
  let q = Opt.program ~options:{ Opt.none with Opt.dce = true } p in
  let assigns p = count_node (function Hir.Assign _ -> true | _ -> false) p in
  Alcotest.(check int) "dead chain removed" (assigns p - 2) (assigns q);
  Alcotest.(check int) "same semantics" (checksum p) (checksum q)

let test_opt_preserves_random_programs =
  QCheck.Test.make ~name:"optimisation preserves the oracle" ~count:40
    QCheck.(pair (int_bound 100000) (int_bound 2))
    (fun (seed, unroll_sel) ->
      let p =
        (* Reuse the strategy-matrix programs plus random seeds via the
           branchy generator family. *)
        match seed mod 4 with
        | 0 -> prog_branchy ()
        | 1 -> prog_loop_sum ()
        | 2 -> prog_with_branches ()
        | _ -> prog_streams ()
      in
      let options =
        { Opt.if_convert = true; if_limit = 4; unroll = 1 + unroll_sel; dce = true }
      in
      let q = Opt.program ~options p in
      checksum p = checksum q)

let test_optimized_compiles_verified () =
  let p = Opt.program ~options:{ Opt.default with Opt.unroll = 2 } (prog_with_branches ()) in
  List.iter
    (fun choice ->
      let machine = Config.default ~n_cores:4 in
      let compiled = Driver.compile ~machine ~choice p in
      ignore (verified_cycles machine compiled))
    [ `Seq; `Ilp; `Tlp; `Llp; `Hybrid ]

(* --- Static estimator vs measured attribution ---------------------------------- *)

module Estimate = Voltron_compiler.Estimate
module Codegen = Voltron_compiler.Codegen
module Regions = Voltron_compiler.Regions
module Machine = Voltron_machine.Machine
module Region_profile = Voltron_obs.Region_profile
module Suite = Voltron_workloads.Suite

(* Compile hybrid, run with region attribution attached, and return the
   plan, the static estimate table and measured per-region wall cycles. *)
let run_attributed ~machine ?choice p =
  let compiled = Driver.compile ~machine ?choice ~check:false p in
  let est = Estimate.create ~machine p in
  let table = Estimate.table est compiled.Driver.plan in
  let m = Machine.create machine compiled.Driver.executable in
  let rp = Region_profile.attach m compiled in
  let result = Machine.run m in
  Alcotest.(check bool) "finished" true (result.Machine.outcome = Machine.Finished);
  (compiled.Driver.plan, table, Region_profile.rows rp)

let measured_wall ~n_cores rows name =
  List.fold_left
    (fun acc (r : Region_profile.row) ->
      if r.Region_profile.r_region = name then
        acc +. float_of_int r.Region_profile.r_cycles
      else acc)
    0. rows
  /. float_of_int n_cores

(* The per-region static estimate must track the measured per-region
   cycles on fixed workloads: every non-glue region within 4x either way,
   geomean error under the sweep's 30% acceptance bar plus slack for the
   small per-benchmark sample. *)
let test_estimator_tracks_attribution () =
  let machine = Config.default ~n_cores:4 in
  List.iter
    (fun bname ->
      (* Full scale: the estimator's overhead constants are calibrated on
         the full-size sweep; tiny scales shift trip-bound outliers. *)
      let p = (Suite.by_name bname).Suite.build ~scale:1.0 () in
      let _plan, table, rows = run_attributed ~machine p in
      let lnsum = ref 0. in
      let n = ref 0 in
      List.iter
        (fun (row : Estimate.row) ->
          let meas = measured_wall ~n_cores:4 rows row.Estimate.e_region in
          (* Same noise floor as `voltron_sim analyze --all`: glue regions
             of a few cycles carry no signal. *)
          if meas > 64. then begin
            let ratio = row.Estimate.e_cycles /. meas in
            Alcotest.(check bool)
              (Printf.sprintf "%s/%s (%s) ratio %.2f within 4x" bname
                 row.Estimate.e_region row.Estimate.e_strategy ratio)
              true
              (ratio > 0.25 && ratio < 4.0);
            lnsum := !lnsum +. abs_float (log ratio);
            incr n
          end)
        table;
      Alcotest.(check bool) (bname ^ " has measurable regions") true (!n >= 3);
      let geo = exp (!lnsum /. float_of_int !n) -. 1. in
      (* The ±30% acceptance bar applies to the full-suite sweep (checked
         by `analyze --all` in CI); a two-benchmark sample is noisier, so
         gate at 2x on average here. *)
      Alcotest.(check bool) (Printf.sprintf "%s geomean %.1f%% under 100%%" bname (geo *. 100.))
        true (geo < 1.0))
    [ "164.gzip"; "gsmdecode" ]

(* The DSWP pipeline estimate against what the simulator attributes to the
   stage cores: the balanced-stage estimate is a speedup in [1, n_cores]
   and an upper bound on the occupancy the queues actually sustain
   (attribution shows stages blocked on operand-queue round-trips most of
   the time). *)
let test_dswp_estimate_vs_occupancy () =
  let machine = Config.default ~n_cores:4 in
  let checked = ref 0 in
  List.iter
    (fun bname ->
      let p = (Suite.by_name bname).Suite.build ~scale:0.2 () in
      let plan, _table, rows = run_attributed ~machine ~choice:`Tlp p in
      List.iter
        (fun (pr : Select.planned_region) ->
          match pr.Select.pr_strategy with
          | Codegen.Dswp d ->
            let est = d.Codegen.ds_speedup in
            Alcotest.(check bool)
              (Printf.sprintf "%s/%s estimate %.2f in [1, 4]" bname pr.Select.pr_name est)
              true
              (est >= 1.0 && est <= 4.0);
            let wall = measured_wall ~n_cores:4 rows pr.Select.pr_name in
            let busy =
              List.fold_left
                (fun acc (r : Region_profile.row) ->
                  if r.Region_profile.r_region = pr.Select.pr_name then
                    acc +. float_of_int r.Region_profile.r_busy
                  else acc)
                0. rows
            in
            if wall > 64. then begin
              let occupancy = busy /. wall in
              Alcotest.(check bool)
                (Printf.sprintf "%s/%s occupancy %.2f positive, bounded" bname
                   pr.Select.pr_name occupancy)
                true
                (occupancy > 0.0 && occupancy <= 4.0);
              (* Occupancy counts every busy issue slot, including
                 replicated glue the estimate's balanced-stage model does
                 not credit as speedup — allow it to run slightly ahead. *)
              Alcotest.(check bool)
                (Printf.sprintf "%s/%s estimate %.2f tracks occupancy %.2f" bname
                   pr.Select.pr_name est occupancy)
                true
                (est >= occupancy *. 0.75);
              incr checked
            end
          | _ -> ())
        plan)
    [ "epic"; "183.equake" ];
  Alcotest.(check bool) "saw dswp regions" true (!checked >= 2)

(* --- Proven vs speculative DOALL on the window kernel --------------------------- *)

(* The masked double-buffer kernel: the sharpened oracle proves the halves
   disjoint, so the plan carries a non-speculative DOALL. Re-emitting the
   same plan with dp_speculative forced on (what affine evidence alone
   would produce) must still verify — and cost measurably more cycles for
   the TM bookkeeping. *)
let test_window_proven_beats_speculative () =
  let machine = Config.default ~n_cores:4 in
  let b = B.create "window" in
  Voltron_workloads.Kernels.doall_window b ~name:"win" ~n:1024 ~work:4 ~seed:7;
  let p = B.finish b in
  let compiled = Driver.compile ~machine ~check:false p in
  let is_proven_doall (pr : Select.planned_region) =
    match pr.Select.pr_strategy with
    | Codegen.Doall dp -> not dp.Codegen.dp_speculative
    | _ -> false
  in
  Alcotest.(check bool) "plan carries a proven doall" true
    (List.exists is_proven_doall compiled.Driver.plan);
  let spec_plan =
    List.map
      (fun (pr : Select.planned_region) ->
        match pr.Select.pr_strategy with
        | Codegen.Doall dp ->
          {
            pr with
            Select.pr_strategy = Codegen.Doall { dp with Codegen.dp_speculative = true };
          }
        | _ -> pr)
      compiled.Driver.plan
  in
  let cg = Codegen.create machine p in
  List.iter
    (fun (pr : Select.planned_region) ->
      Codegen.emit_region cg ~name:pr.Select.pr_name pr.Select.pr_stmts
        pr.Select.pr_strategy)
    spec_plan;
  let spec_exe = Codegen.finalize cg in
  let proven_cycles =
    verified_cycles ~what:"proven build" machine compiled
  in
  let spec_cycles =
    verified_cycles ~what:"speculative build" machine
      { compiled with Driver.executable = spec_exe }
  in
  Alcotest.(check bool)
    (Printf.sprintf "proven %d < speculative %d" proven_cycles spec_cycles)
    true
    (proven_cycles < spec_cycles)

(* --- One interpreter run per program ------------------------------------------ *)

module Profile = Voltron_analysis.Profile
module Interp = Voltron_ir.Interp

let interp_oracle p =
  let r = Interp.run p in
  let words = Voltron_ir.Layout.mem_size r.Interp.layout in
  (words, Voltron_mem.Memory.checksum_prefix r.Interp.memory words)

let compiled_oracle (c : Driver.compiled) =
  (c.Driver.array_footprint, c.Driver.oracle_checksum)

(* The oracle a compile takes from the profiling run is the one a separate
   interpreter run gives, and so is the one its static-profile fallback
   runs for itself. *)
let test_profile_oracle_matches_interp () =
  let machine = Config.default ~n_cores:2 in
  let programs =
    List.map (fun (b : Suite.benchmark) -> (b.Suite.bench_name, b.Suite.build ~scale:0.2 ()))
      Suite.all
    @ List.map
        (fun (m : Suite.micro) -> (m.Suite.micro_name, m.Suite.micro_build ~scale:0.2 ()))
        Suite.micros
  in
  List.iter
    (fun (name, p) ->
      let expected = interp_oracle p in
      let compile profile = Driver.compile ~machine ~check:false ~profile p in
      Alcotest.(check (pair int int)) (name ^ " profiled") expected
        (compiled_oracle (compile (Profile.collect p)));
      Alcotest.(check (pair int int)) (name ^ " static") expected
        (compiled_oracle (compile (Profile.of_static p))))
    programs

(* Experiments.ablation_tm profiles a conflict-free twin; the conflicted
   program must still be judged against its own interpreter run. *)
let test_twin_profile_keeps_own_oracle () =
  let build conflicts =
    let b = B.create "tm_ablate" in
    Voltron_workloads.Kernels.doall_rmw b ~name:"rmw" ~n:256 ~conflicts ~seed:9;
    B.finish b
  in
  let clean_profile = Profile.collect (build 0) in
  let p = build 16 in
  Alcotest.(check bool) "twins differ" true (interp_oracle p <> interp_oracle (build 0));
  let machine = Config.default ~n_cores:4 in
  let compiled = Driver.compile ~machine ~choice:`Llp ~profile:clean_profile p in
  Alcotest.(check (pair int int)) "own oracle" (interp_oracle p) (compiled_oracle compiled);
  ignore (verified_cycles machine compiled)

(* eBUG reads the miss rates of the profile the strategy carries: a profile
   from a one-line cache (every access misses) moves the partition. Both
   builds still verify. *)
let test_strands_honour_caller_profile () =
  let p = Suite.micro_gsm_ilp ~scale:0.2 () in
  let machine = Config.default ~n_cores:4 in
  let build profile =
    let cg = Codegen.create machine p in
    List.iter
      (fun (r : Hir.region) ->
        Codegen.emit_region cg ~name:r.Hir.region_name r.Hir.stmts
          (Codegen.Strands profile))
      p.Hir.regions;
    Codegen.finalize cg
  in
  let one_line =
    { Voltron_mem.Coherence.default_config with l1d_sets = 1; l1d_ways = 1 }
  in
  let profile = Profile.collect p in
  let measured = build profile in
  let thrashing = build (Profile.collect ~cache:one_line p) in
  Alcotest.(check bool) "images differ" true (measured <> thrashing);
  (* The carried profile is data: plans stay comparable with [=], although
     the program's array initialisers are closures. *)
  let plan () = Select.plan ~machine ~profile `Tlp p in
  Alcotest.(check bool) "plans compare" true (plan () = plan ());
  let compiled = Driver.compile ~machine ~choice:`Seq p in
  List.iter
    (fun exe ->
      ignore
        (verified_cycles machine { compiled with Driver.executable = exe }))
    [ measured; thrashing ]

(* --- One region analysis per program ------------------------------------------ *)

(* Every (strategy, cores) cell of the differential matrix compiles from
   one shared analysis, in forward and then reverse cell order. Each plan
   and executable must equal the one from a compile that builds its own:
   a compile that reserved DOALL scratch in the shared layout, or named
   its glue from the shared counters, would shift the next cell's image. *)
let test_shared_regions_pure () =
  let p = (Suite.by_name "g721decode").Suite.build ~scale:0.2 () in
  let profile = Profile.collect p in
  let cells =
    List.concat_map
      (fun cores -> List.map (fun choice -> (cores, choice)) Run.default_strategies)
      Run.default_cores
  in
  let compile ?regions (cores, choice) =
    let machine = Config.default ~n_cores:cores in
    let c = Driver.compile ~machine ~choice ~check:false ~profile ?regions p in
    (c.Driver.plan, c.Driver.executable)
  in
  let fresh = List.map (fun cell -> (cell, compile cell)) cells in
  let planned what pred =
    Alcotest.(check bool) ("matrix plans " ^ what) true
      (List.exists
         (fun (_, (plan, _)) ->
           List.exists (fun (pr : Select.planned_region) -> pred pr.Select.pr_strategy) plan)
         fresh)
  in
  planned "a doall with accumulators" (function
    | Codegen.Doall dp -> dp.Codegen.dp_accumulators <> []
    | _ -> false);
  planned "a dswp region" (function Codegen.Dswp _ -> true | _ -> false);
  planned "an ilp region" (function Codegen.Coupled_ilp -> true | _ -> false);
  let regions = Regions.of_program p in
  List.iter
    (fun (((cores, choice) as cell), (plan, exe)) ->
      let name = Printf.sprintf "%s/%d" (Run.choice_name choice) cores in
      let plan', exe' = compile ~regions cell in
      Alcotest.(check bool) (name ^ " plan") true (plan = plan');
      Alcotest.(check bool) (name ^ " executable") true (exe = exe'))
    (fresh @ List.rev fresh)

(* --- DSWP plans ------------------------------------------------------------------ *)

(* The suite at scale 0.2 under [tlp] and [hybrid] at 4 cores, with each
   program's shared analysis: (program, analysis, plan) per build. *)
let suite_plans () =
  let machine = Config.default ~n_cores:4 in
  List.concat_map
    (fun (b : Suite.benchmark) ->
      let p = b.Suite.build ~scale:0.2 () in
      let profile = Profile.collect p in
      let regions = Regions.of_program p in
      List.map
        (fun choice -> (p, regions, Select.plan ~regions ~machine ~profile choice p))
        [ `Tlp; `Hybrid ])
    Suite.all

(* Every planned DSWP region carries exactly what the partitioner makes
   of that region's shared dependence graph, and clears the threshold. *)
let test_dswp_plan_is_partition () =
  let seen = ref 0 in
  List.iter
    (fun (_, regions, plan) ->
      List.iter
        (fun (pr : Select.planned_region) ->
          match pr.Select.pr_strategy with
          | Codegen.Dswp d ->
            incr seen;
            let r = Option.get (Regions.find regions pr.Select.pr_stmts) in
            let fresh =
              Voltron_compiler.Partition.dswp ~n_cores:4 ~dg:r.Regions.dg
                ~cfg:r.Regions.cfg ~memdep:r.Regions.memdep
            in
            Alcotest.(check bool)
              (pr.Select.pr_name ^ " carries the partitioner's pipeline")
              true
              (fresh = Some (d.Codegen.ds_partition, d.Codegen.ds_speedup));
            Alcotest.(check bool) (pr.Select.pr_name ^ " clears 1.25") true
              (d.Codegen.ds_speedup >= 1.25)
          | _ -> ())
        plan)
    (suite_plans ());
  Alcotest.(check bool) "the suite plans some DSWP region" true (!seen > 0)

(* A DSWP plan applied to a region with another op count is refused
   rather than compiled against the wrong analysis. *)
let test_dswp_plan_guard () =
  let machine = Config.default ~n_cores:4 in
  let p, d, other, (n, m) =
    List.find_map
      (fun (p, regions, plan) ->
        List.find_map
          (fun (pr : Select.planned_region) ->
            match pr.Select.pr_strategy with
            | Codegen.Dswp d ->
              let n = Array.length d.Codegen.ds_partition.Voltron_compiler.Partition.core_of in
              List.find_map
                (fun (r : Hir.region) ->
                  let a = Option.get (Regions.find regions r.Hir.stmts) in
                  let m = Array.length a.Regions.dg.Voltron_analysis.Depgraph.ops in
                  if m <> n then Some (p, d, r, (n, m)) else None)
                p.Hir.regions
            | _ -> None)
          plan)
      (suite_plans ())
    |> Option.get
  in
  let cg = Codegen.create machine p in
  match
    Codegen.emit_region cg ~name:other.Hir.region_name other.Hir.stmts (Codegen.Dswp d)
  with
  | () -> Alcotest.fail "a misapplied DSWP partition compiled"
  | exception Invalid_argument msg ->
    Alcotest.(check string) "refusal"
      (Printf.sprintf "Codegen: region %s's DSWP partition covers %d ops, its analysis has %d"
         other.Hir.region_name n m)
      msg

(* --- Golden output ------------------------------------------------------------ *)

(* Every executable the compiler emits for two program sets, with the
   checker's rendered diagnostics, hashed into one digest: the 32 fuzz
   programs of campaign seed 7 (perfbench's fuzz-diff set) under the
   default strategy x core matrix, and the suite at scale 0.2 under
   hybrid and tlp at 4 and 16 cores. A change to partitioning,
   scheduling or emission that moves any bundle changes the digest; a
   pure speed-up of those passes must leave it alone. *)
let golden_md5 = "ede9df8a8c13f88a66485208c44f9b73"

let test_golden_output () =
  let buf = Buffer.create (1 lsl 20) in
  let ppf = Format.formatter_of_buffer buf in
  let diags ds =
    List.iter
      (fun d -> Format.fprintf ppf "%s@." (Voltron_check.Check.diag_to_string d))
      ds
  in
  let compile_matrix label ?max_steps p ~choices ~cores =
    let profile = Profile.collect ?max_steps p in
    let regions = Regions.of_program p in
    List.iter
      (fun n_cores ->
        List.iter
          (fun choice ->
            Format.fprintf ppf "== %s %s/%d@." label (Run.choice_name choice) n_cores;
            let machine = Config.default ~n_cores in
            match Driver.compile ~machine ~choice ~check:true ~profile ~regions p with
            | c ->
              Voltron_isa.Program.pp ppf c.Driver.executable;
              diags c.Driver.check_diags
            | exception Voltron_check.Check.Failed ds ->
              Format.fprintf ppf "rejected@.";
              diags ds)
          choices)
      cores
  in
  let rng = Voltron_util.Rng.create 7 in
  for k = 0 to 31 do
    let seed = Voltron_util.Rng.next (Voltron_util.Rng.split rng k) in
    let ast = Voltron_gen.Gen.program ~seed () in
    let p =
      Voltron_lang.Frontend.parse_string ~name:ast.Voltron_lang.Ast.prog_name
        (Voltron_gen.Gen.render ast)
    in
    compile_matrix (Printf.sprintf "fuzz 7/%d" k) ~max_steps:2_000_000 p
      ~choices:Run.default_strategies ~cores:Run.default_cores
  done;
  List.iter
    (fun (b : Suite.benchmark) ->
      compile_matrix b.Suite.bench_name (b.Suite.build ~scale:0.2 ())
        ~choices:[ `Hybrid; `Tlp ] ~cores:[ 4; 16 ])
    Suite.all;
  Format.pp_print_flush ppf ();
  Alcotest.(check string) "digest" golden_md5 (Digest.to_hex (Digest.string (Buffer.contents buf)))

let () =
  Alcotest.run "compiler"
    [
      ("matrix", matrix_tests);
      ( "simulate",
        [ Alcotest.test_case "one judgement path" `Quick test_simulate_judges ] );
      ( "properties",
        [
          Alcotest.test_case "llp speedup" `Quick test_llp_speedup;
          Alcotest.test_case "recurrence rejected" `Quick test_recurrence_not_doall;
        ] );
      ( "select",
        [
          Alcotest.test_case "tiny stays serial" `Quick test_select_tiny_region_stays_serial;
          Alcotest.test_case "small trip not doall" `Quick test_select_small_trip_not_doall;
          Alcotest.test_case "llp fallback seq" `Quick test_select_forced_llp_degrades_to_seq;
          Alcotest.test_case "miss fraction" `Quick test_select_miss_fraction_drives_strands;
        ] );
      ( "sched",
        [
          Alcotest.test_case "coupled lock-step alignment" `Quick
            test_coupled_blocks_aligned;
          Alcotest.test_case "branch condition delivered once" `Quick
            test_branch_condition_delivered_once;
          Alcotest.test_case "wide issue packs" `Quick test_wide_issue_schedules_pack;
        ] );
      ( "opt",
        [
          Alcotest.test_case "if-conversion" `Quick test_if_conversion_removes_branches;
          Alcotest.test_case "impure ifs kept" `Quick test_if_conversion_skips_impure;
          Alcotest.test_case "unrolling" `Quick test_unroll_semantics_and_shape;
          Alcotest.test_case "dce" `Quick test_dce_removes_dead;
          Alcotest.test_case "optimized verifies" `Quick test_optimized_compiles_verified;
          QCheck_alcotest.to_alcotest test_opt_preserves_random_programs;
        ] );
      ( "estimate",
        [
          Alcotest.test_case "tracks attribution" `Slow test_estimator_tracks_attribution;
          Alcotest.test_case "dswp estimate vs occupancy" `Slow
            test_dswp_estimate_vs_occupancy;
          Alcotest.test_case "window proven beats speculative" `Quick
            test_window_proven_beats_speculative;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "profile oracle matches interp" `Quick
            test_profile_oracle_matches_interp;
          Alcotest.test_case "twin profile keeps own oracle" `Quick
            test_twin_profile_keeps_own_oracle;
          Alcotest.test_case "strands honour caller profile" `Quick
            test_strands_honour_caller_profile;
        ] );
      ( "regions",
        [
          Alcotest.test_case "shared analysis is pure" `Quick
            test_shared_regions_pure;
          Alcotest.test_case "dswp plan is the partition" `Quick
            test_dswp_plan_is_partition;
          Alcotest.test_case "misapplied dswp plan refused" `Quick test_dswp_plan_guard;
        ] );
      ("golden", [ Alcotest.test_case "executables pinned" `Quick test_golden_output ]);
    ]
