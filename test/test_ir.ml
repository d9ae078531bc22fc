(* Tests for the IR layer: builder invariants, layout, interpreter
   semantics (the oracle itself), lowering to CFG, and a qcheck property
   that lowering + single-core simulation agrees with the interpreter on
   random structured programs. *)

module B = Voltron_ir.Builder
module Hir = Voltron_ir.Hir
module Interp = Voltron_ir.Interp
module Layout = Voltron_ir.Layout
module Lower = Voltron_ir.Lower
module Cfg = Voltron_ir.Cfg
module Inst = Voltron_isa.Inst
module Rng = Voltron_util.Rng

let imm = B.imm

(* --- Builder ----------------------------------------------------------------- *)

let test_builder_region_required () =
  let b = B.create "x" in
  Alcotest.(check bool) "emit outside region rejected" true
    (try
       ignore (B.add b (imm 1) (imm 2));
       false
     with Invalid_argument _ -> true)

let test_builder_no_nesting () =
  let b = B.create "x" in
  Alcotest.(check bool) "nested region rejected" true
    (try
       B.region b "outer" (fun () -> B.region b "inner" (fun () -> ()));
       false
     with Invalid_argument _ -> true)

let test_builder_fresh_unique () =
  let b = B.create "x" in
  let r1 = B.fresh b and r2 = B.fresh b in
  Alcotest.(check bool) "fresh regs distinct" true (r1 <> r2)

let test_builder_sids_unique () =
  let b = B.create "x" in
  let a = B.array b ~name:"a" ~size:4 () in
  B.region b "r" (fun () ->
      B.for_ b ~from:(imm 0) ~limit:(imm 4) (fun i ->
          B.store b a i (B.add b i (imm 1))));
  let p = B.finish b in
  let sids = ref [] in
  List.iter
    (fun (r : Hir.region) -> Hir.iter_stmts (fun s -> sids := s.Hir.sid :: !sids) r.Hir.stmts)
    p.Hir.regions;
  Alcotest.(check int) "unique sids" (List.length !sids)
    (List.length (List.sort_uniq compare !sids))

(* --- Layout ------------------------------------------------------------------- *)

let test_layout_disjoint_lines () =
  let b = B.create "x" in
  let a1 = B.array b ~name:"a1" ~size:3 () in
  let a2 = B.array b ~name:"a2" ~size:5 () in
  let p = B.finish b in
  let lay = Layout.compute ~line_words:8 p in
  Alcotest.(check int) "a1 at 0" 0 (Layout.base lay a1);
  Alcotest.(check int) "a2 line-aligned" 8 (Layout.base lay a2);
  let scratch = Layout.scratch_alloc lay 4 in
  Alcotest.(check bool) "scratch after arrays" true (scratch >= 16);
  Alcotest.(check bool) "mem_size covers scratch" true (Layout.mem_size lay >= scratch + 4)

(* --- Interpreter ---------------------------------------------------------------- *)

let run_interp build =
  let b = B.create "t" in
  let out = B.array b ~name:"out" ~size:16 () in
  B.region b "main" (fun () -> build b out);
  Interp.run (B.finish b)

let read result i = Voltron_mem.Memory.read result.Interp.memory i

let test_interp_arith () =
  let r =
    run_interp (fun b out ->
        let x = B.mul b (imm 6) (imm 7) in
        B.store b out (imm 0) x;
        B.store b out (imm 1) (B.binop b Inst.Div x (imm 0)) (* total: 0 *);
        B.store b out (imm 2) (B.select b (imm 1) (imm 11) (imm 22)))
  in
  Alcotest.(check int) "mul" 42 (read r 0);
  Alcotest.(check int) "div0" 0 (read r 1);
  Alcotest.(check int) "select" 11 (read r 2)

let test_interp_for_zero_trip () =
  let r =
    run_interp (fun b out ->
        B.for_ b ~from:(imm 5) ~limit:(imm 5) (fun i -> B.store b out i (imm 9));
        B.store b out (imm 0) (imm 1))
  in
  Alcotest.(check int) "no iterations" 1 (read r 0)

let test_interp_nested_loops () =
  let r =
    run_interp (fun b out ->
        let acc = B.fresh b in
        B.assign b acc (Hir.Operand (imm 0));
        B.for_ b ~from:(imm 0) ~limit:(imm 3) (fun _i ->
            B.for_ b ~from:(imm 0) ~limit:(imm 4) (fun _j ->
                B.assign b acc (Hir.Alu (Inst.Add, Hir.Reg acc, imm 1))));
        B.store b out (imm 0) (Hir.Reg acc))
  in
  Alcotest.(check int) "3*4 iterations" 12 (read r 0)

let test_interp_do_while () =
  let r =
    run_interp (fun b out ->
        let x = B.fresh b in
        B.assign b x (Hir.Operand (imm 1));
        B.do_while b (fun () ->
            B.assign b x (Hir.Alu (Inst.Mul, Hir.Reg x, imm 2));
            B.cmp b Inst.Lt (Hir.Reg x) (imm 100));
        B.store b out (imm 0) (Hir.Reg x))
  in
  Alcotest.(check int) "doubles past 100" 128 (read r 0)

let test_interp_oob_faults () =
  Alcotest.(check bool) "store out of bounds faults" true
    (try
       ignore (run_interp (fun b out -> B.store b out (imm 99) (imm 1)));
       false
     with Invalid_argument _ -> true)

let test_interp_step_limit () =
  let b = B.create "inf" in
  let out = B.array b ~name:"o" ~size:2 () in
  B.region b "main" (fun () ->
      let x = B.fresh b in
      B.assign b x (Hir.Operand (imm 1));
      B.do_while b (fun () ->
          B.store b out (imm 0) (Hir.Reg x);
          B.cmp b Inst.Eq (imm 1) (imm 1));
      ());
  let p = B.finish b in
  Alcotest.(check bool) "nontermination detected" true
    (try
       ignore (Interp.run ~max_steps:1000 p);
       false
     with Interp.Step_limit_exceeded -> true)

(* --- Lowering ------------------------------------------------------------------- *)

let lower_program p =
  let lay = Layout.compute p in
  let ctx = Lower.make_ctx ~layout:lay ~first_vreg:p.Hir.n_vregs in
  List.map (fun (r : Hir.region) -> Lower.region ctx r.Hir.stmts) p.Hir.regions

let test_lower_loop_shape () =
  let b = B.create "x" in
  let a = B.array b ~name:"a" ~size:8 () in
  B.region b "main" (fun () ->
      B.for_ b ~from:(imm 0) ~limit:(imm 8) (fun i -> B.store b a i i));
  let p = B.finish b in
  match lower_program p with
  | [ cfg ] ->
    (* Bottom-tested loop: entry block (guard), body block, exit block. *)
    Alcotest.(check int) "three blocks" 3 (Array.length cfg.Cfg.blocks);
    (match cfg.Cfg.blocks.(0).Cfg.b_term with
    | Cfg.Branch { invert = true; _ } -> ()
    | _ -> Alcotest.fail "entry guard expected");
    (match cfg.Cfg.blocks.(1).Cfg.b_term with
    | Cfg.Branch { invert = false; target; _ } ->
      Alcotest.(check string) "back edge to body" target cfg.Cfg.blocks.(1).Cfg.b_label
    | _ -> Alcotest.fail "backward branch expected");
    (* Induction ops with immediate bounds are replicable: mov, guard cmp,
       add, latch cmp. *)
    Alcotest.(check int) "replicable ops" 4 (Hashtbl.length cfg.Cfg.replicable)
  | _ -> Alcotest.fail "one region"

let test_lower_mem_refs () =
  let b = B.create "x" in
  let a = B.array b ~name:"a" ~size:8 () in
  B.region b "main" (fun () ->
      let v = B.load b a (imm 1) in
      B.store b a (imm 2) v);
  let p = B.finish b in
  match lower_program p with
  | [ cfg ] ->
    let refs = Hashtbl.fold (fun _ r acc -> r :: acc) cfg.Cfg.mem_refs [] in
    Alcotest.(check int) "two memory refs" 2 (List.length refs);
    Alcotest.(check int) "one write" 1
      (List.length (List.filter (fun r -> r.Cfg.m_write) refs))
  | _ -> Alcotest.fail "one region"

(* --- Property: compiled-sequential equals interpreted on random programs --- *)

let random_program seed =
  let rng = Rng.create seed in
  let b = B.create "rand" in
  let n_arrays = Rng.in_range rng 1 3 in
  let arrays =
    List.init n_arrays (fun i ->
        B.array b
          ~name:(Printf.sprintf "a%d" i)
          ~size:32
          ~init:(fun j -> (j * (i + 3)) mod 17)
          ())
  in
  let pick_array () = List.nth arrays (Rng.int rng n_arrays) in
  B.region b "main" (fun () ->
      (* A pool of defined operands grows as statements emit. *)
      let pool = ref [ imm 1; imm 7 ] in
      let operand () = List.nth !pool (Rng.int rng (List.length !pool)) in
      let emit_expr () =
        let choice = Rng.int rng 5 in
        let v =
          if choice = 0 then
            B.load b (pick_array ()) (B.binop b Inst.And (operand ()) (imm 31))
          else if choice = 1 then B.add b (operand ()) (operand ())
          else if choice = 2 then B.mul b (operand ()) (operand ())
          else if choice = 3 then B.binop b Inst.Xor (operand ()) (operand ())
          else B.select b (operand ()) (operand ()) (operand ())
        in
        pool := v :: !pool
      in
      let emit_store () =
        B.store b (pick_array ())
          (B.binop b Inst.And (operand ()) (imm 31))
          (operand ())
      in
      for _ = 1 to Rng.in_range rng 3 6 do
        emit_expr ()
      done;
      emit_store ();
      (* One loop with a couple of statements. *)
      B.for_ b ~from:(imm 0) ~limit:(imm (Rng.in_range rng 2 20)) (fun i ->
          let x = B.add b i (operand ()) in
          B.store b (pick_array ()) (B.binop b Inst.And x (imm 31)) x;
          if Rng.bool rng then begin
            let c = B.cmp b Inst.Lt i (imm 7) in
            B.if_ b c
              (fun () -> B.store b (pick_array ()) (imm 0) i)
              (fun () -> ())
          end);
      emit_store ());
  B.finish b

let test_random_lower_simulate =
  QCheck.Test.make ~name:"sequential compile+simulate = interpreter" ~count:60
    QCheck.(int_bound 100000)
    (fun seed ->
      let p = random_program seed in
      let oracle = Interp.run p in
      let machine = Voltron_machine.Config.default ~n_cores:1 in
      let compiled = Voltron_compiler.Driver.compile ~machine ~choice:`Seq p in
      (fst (Voltron.Run.simulate ~attach:ignore machine compiled))
        .Voltron.Run.verified
      && compiled.Voltron_compiler.Driver.oracle_checksum
         = Voltron_mem.Memory.checksum_prefix oracle.Interp.memory
             compiled.Voltron_compiler.Driver.array_footprint)

(* Pretty-printers do not raise and produce non-trivial text. *)
let test_printers_smoke () =
  let b = B.create "pp" in
  let a = B.array b ~name:"a" ~size:8 ~init:(fun i -> i) () in
  B.region b "main" (fun () ->
      B.for_ b ~from:(imm 0) ~limit:(imm 8) (fun i ->
          let v = B.load b a i in
          let c = B.cmp b Inst.Lt v (imm 4) in
          B.if_ b c (fun () -> B.store b a i (B.mul b v v)) (fun () -> ()));
      let x = B.fresh b in
      B.assign b x (Hir.Operand (imm 1));
      B.do_while b (fun () ->
          B.assign b x (Hir.Alu (Inst.Add, Hir.Reg x, imm 1));
          B.cmp b Inst.Lt (Hir.Reg x) (imm 3)));
  let p = B.finish b in
  let text = Format.asprintf "%a" Hir.pp_program p in
  Alcotest.(check bool) "program prints" true (String.length text > 100);
  let lay = Layout.compute p in
  let ctx = Lower.make_ctx ~layout:lay ~first_vreg:p.Hir.n_vregs in
  let cfg = Lower.region ctx (List.hd p.Hir.regions).Hir.stmts in
  let ctext = Format.asprintf "%a" Cfg.pp cfg in
  Alcotest.(check bool) "cfg prints" true (String.length ctext > 100)

let test_run_speedup_facade () =
  let b = B.create "facade" in
  let src = B.array b ~name:"s" ~size:512 ~init:(fun i -> i) () in
  let dst = B.array b ~name:"d" ~size:512 () in
  B.region b "main" (fun () ->
      B.for_ b ~from:(imm 0) ~limit:(imm 512) (fun i ->
          let v = B.load b src i in
          B.store b dst i (B.mul b v v)));
  let p = B.finish b in
  let profile = Voltron_analysis.Profile.collect p in
  let base = Voltron.Run.baseline_cycles ~profile p in
  let m = Voltron.Run.run ~profile ~n_cores:4 p in
  Alcotest.(check bool) "verified" true m.Voltron.Run.verified;
  let s = float_of_int base /. float_of_int m.Voltron.Run.cycles in
  Alcotest.(check bool) (Printf.sprintf "speedup %.2f > 1.3" s) true (s > 1.3)

let () =
  Alcotest.run "ir"
    [
      ( "builder",
        [
          Alcotest.test_case "region required" `Quick test_builder_region_required;
          Alcotest.test_case "no nesting" `Quick test_builder_no_nesting;
          Alcotest.test_case "fresh unique" `Quick test_builder_fresh_unique;
          Alcotest.test_case "unique sids" `Quick test_builder_sids_unique;
        ] );
      ("layout", [ Alcotest.test_case "disjoint lines" `Quick test_layout_disjoint_lines ]);
      ( "interp",
        [
          Alcotest.test_case "arith" `Quick test_interp_arith;
          Alcotest.test_case "zero-trip for" `Quick test_interp_for_zero_trip;
          Alcotest.test_case "nested loops" `Quick test_interp_nested_loops;
          Alcotest.test_case "do-while" `Quick test_interp_do_while;
          Alcotest.test_case "bounds fault" `Quick test_interp_oob_faults;
          Alcotest.test_case "step limit" `Quick test_interp_step_limit;
        ] );
      ( "lower",
        [
          Alcotest.test_case "loop shape" `Quick test_lower_loop_shape;
          Alcotest.test_case "mem refs" `Quick test_lower_mem_refs;
        ] );
      ( "facade",
        [
          Alcotest.test_case "printers" `Quick test_printers_smoke;
          Alcotest.test_case "speedup" `Quick test_run_speedup_facade;
        ] );
      ("property", [ QCheck_alcotest.to_alcotest test_random_lower_simulate ]);
    ]
