(* Tests for the abstract interpreter: domain transfer functions, loop
   trip bounds (counted and do-while), the per-site index summaries the
   dependence oracle consumes, injected-bug diagnostics, and the
   zero-false-positive sweep over the benchmark suite and generated
   programs. *)

module B = Voltron_ir.Builder
module Hir = Voltron_ir.Hir
module Inst = Voltron_isa.Inst
module Dom = Voltron_absint.Dom
module Absint = Voltron_absint.Absint
module Suite = Voltron_workloads.Suite
module Gen = Voltron_gen.Gen
module Frontend = Voltron_lang.Frontend

let imm = B.imm

(* --- Domain ----------------------------------------------------------------- *)

let test_dom_const_arith () =
  let c = Dom.const in
  Alcotest.(check (option int)) "3+4" (Some 7) (Dom.is_const (Dom.alu Inst.Add (c 3) (c 4)));
  Alcotest.(check (option int)) "6*7" (Some 42) (Dom.is_const (Dom.alu Inst.Mul (c 6) (c 7)));
  Alcotest.(check (option int)) "13-20" (Some (-7)) (Dom.is_const (Dom.alu Inst.Sub (c 13) (c 20)));
  (* Division by zero yields 0 in the concrete semantics; the transfer
     must agree, not go to bottom. *)
  Alcotest.(check (option int)) "5/0 = 0" (Some 0) (Dom.is_const (Dom.alu Inst.Div (c 5) (c 0)))

let test_dom_join_congruence () =
  let j = Dom.join (Dom.const 1) (Dom.const 5) in
  Alcotest.(check bool) "contains 1" true (Dom.contains j 1);
  Alcotest.(check bool) "contains 5" true (Dom.contains j 5);
  (* join keeps 1 (mod 4): 3 is excluded by congruence, not interval. *)
  Alcotest.(check bool) "excludes 3" false (Dom.contains j 3);
  Alcotest.(check bool) "may_equal 5" true (Dom.may_equal j (Dom.const 5));
  Alcotest.(check bool) "not may_equal 3" false (Dom.may_equal j (Dom.const 3))

let test_dom_masked_and () =
  (* i land 255 from an unknown value: the window-subscript pattern. *)
  let m = Dom.alu Inst.And Dom.top (Dom.const 255) in
  Alcotest.(check bool) "contains 0" true (Dom.contains m 0);
  Alcotest.(check bool) "contains 255" true (Dom.contains m 255);
  Alcotest.(check bool) "excludes 256" false (Dom.contains m 256);
  Alcotest.(check bool) "disjoint from 300" false (Dom.may_equal m (Dom.const 300));
  (* Shifted window halves are provably disjoint. *)
  let hi = Dom.add_const m 256 in
  Alcotest.(check bool) "halves disjoint" false (Dom.may_equal m hi)

let test_dom_stride () =
  let evens = Dom.loop_var ~init:(Dom.const 0) ~limit:(Dom.const 16) ~step:2 in
  Alcotest.(check bool) "contains 0" true (Dom.contains evens 0);
  Alcotest.(check bool) "contains 14" true (Dom.contains evens 14);
  Alcotest.(check bool) "excludes 15 (interval hi)" false (Dom.contains evens 15);
  Alcotest.(check bool) "excludes 3 (stride)" false (Dom.contains evens 3);
  let odds = Dom.with_stride ~m:2 ~r:1 Dom.top in
  Alcotest.(check bool) "evens/odds disjoint" false (Dom.may_equal evens odds)

let test_dom_widen () =
  let w = Dom.widen (Dom.range 0 4) (Dom.range 0 8) in
  Alcotest.(check bool) "unstable hi extrapolated" true (Dom.contains w 1_000_000);
  Alcotest.(check bool) "stable lo kept" false (Dom.contains w (-1));
  let s = Dom.widen (Dom.range 0 8) (Dom.range 0 8) in
  Alcotest.(check bool) "stable operand unchanged" true (Dom.equal s (Dom.range 0 8))

let test_dom_disjoint_intervals () =
  Alcotest.(check bool) "ranges disjoint" false
    (Dom.may_equal (Dom.range 0 10) (Dom.range 11 20));
  Alcotest.(check bool) "ranges overlap" true
    (Dom.may_equal (Dom.range 0 10) (Dom.range 10 20))

(* --- Trip bounds ------------------------------------------------------------ *)

let test_for_trips () =
  let b = B.create "t" in
  let a = B.array b ~name:"a" ~size:64 () in
  B.region b "main" (fun () ->
      B.for_ b ~from:(imm 0) ~limit:(imm 16) (fun i -> B.store b a i (imm 1)));
  let p = B.finish b in
  let sum = Absint.analyze p in
  match Absint.loops sum with
  | [ li ] ->
    Alcotest.(check bool) "counted" true (li.Absint.li_kind = `For);
    Alcotest.(check (float 0.0)) "est" 16.0 li.Absint.li_trip_est;
    Alcotest.(check (float 0.0)) "max" 16.0 li.Absint.li_trip_max
  | _ -> Alcotest.fail "one loop expected"

(* do { x += 3 } while (x < 30) from x = 0: exactly 10 trips, found by
   the syntactic counter-bound detector. *)
let test_do_while_counter_bound () =
  let b = B.create "t" in
  let a = B.array b ~name:"a" ~size:64 () in
  B.region b "main" (fun () ->
      let x = B.fresh b in
      B.assign b x (Hir.Operand (imm 0));
      B.do_while b (fun () ->
          B.assign b x (Hir.Alu (Inst.Add, Hir.Reg x, imm 3));
          B.store b a (imm 0) (Hir.Reg x);
          B.cmp b Inst.Lt (Hir.Reg x) (imm 30)));
  let p = B.finish b in
  let sum = Absint.analyze p in
  match Absint.loops sum with
  | [ li ] ->
    Alcotest.(check bool) "do-while" true (li.Absint.li_kind = `Do_while);
    Alcotest.(check bool) "min one trip" true (li.Absint.li_trip_min >= 1.0);
    Alcotest.(check (float 0.0)) "bounded at 10" 10.0 li.Absint.li_trip_max
  | _ -> Alcotest.fail "one loop expected"

(* A do-while whose exit depends on loaded data has no static bound. *)
let test_do_while_unbounded () =
  let b = B.create "t" in
  let a = B.array b ~name:"a" ~size:64 ~init:(fun i -> i) () in
  B.region b "main" (fun () ->
      let x = B.fresh b in
      B.assign b x (Hir.Operand (imm 0));
      B.do_while b (fun () ->
          B.assign b x (Hir.Alu (Inst.Add, Hir.Reg x, imm 1));
          let v = B.load b a (B.binop b Inst.And (Hir.Reg x) (imm 63)) in
          B.cmp b Inst.Ne v (imm 0)));
  let p = B.finish b in
  let sum = Absint.analyze p in
  match Absint.loops sum with
  | [ li ] ->
    Alcotest.(check bool) "unbounded" true (li.Absint.li_trip_max = infinity)
  | _ -> Alcotest.fail "one loop expected"

(* --- Site summaries ---------------------------------------------------------- *)

let test_site_index_and_count () =
  let b = B.create "t" in
  let a = B.array b ~name:"a" ~size:64 () in
  B.region b "main" (fun () ->
      B.for_ b ~from:(imm 0) ~limit:(imm 16) (fun i ->
          B.store b a (B.add b i (imm 4)) (imm 1)));
  let p = B.finish b in
  let sum = Absint.analyze p in
  match List.filter (fun s -> s.Absint.s_write) (Absint.sites sum) with
  | [ s ] ->
    Alcotest.(check bool) "contains 4" true (Dom.contains s.Absint.s_index 4);
    Alcotest.(check bool) "contains 19" true (Dom.contains s.Absint.s_index 19);
    Alcotest.(check bool) "excludes 20" false (Dom.contains s.Absint.s_index 20);
    Alcotest.(check (float 0.0)) "16 executions" 16.0 s.Absint.s_count
  | _ -> Alcotest.fail "one store site expected"

(* summarize_region starts from a top environment: live-in scalars are
   unconstrained, yet a mask still bounds the subscript — the shape the
   per-region dependence oracle relies on. *)
let test_summarize_region_top_entry () =
  let b = B.create "t" in
  let a = B.array b ~name:"a" ~size:128 () in
  let v = B.fresh b in
  B.region b "main" (fun () ->
      B.store b a (B.binop b Inst.And (Hir.Reg v) (imm 63)) (imm 1));
  let p = B.finish b in
  let r = List.hd p.Hir.regions in
  let sum = Absint.summarize_region r.Hir.stmts in
  match List.filter (fun s -> s.Absint.s_write) (Absint.sites sum) with
  | [ s ] ->
    Alcotest.(check bool) "contains 63" true (Dom.contains s.Absint.s_index 63);
    Alcotest.(check bool) "excludes 64" false (Dom.contains s.Absint.s_index 64)
  | _ -> Alcotest.fail "one store site expected"

(* --- Injected-bug diagnostics ------------------------------------------------ *)

let classes sum = List.map (fun d -> Absint.kind_class d.Absint.d_kind) (Absint.diags sum)

let test_diag_oob () =
  let b = B.create "t" in
  let a = B.array b ~name:"a" ~size:64 () in
  B.region b "main" (fun () -> B.store b a (imm 70) (imm 1));
  let sum = Absint.analyze (B.finish b) in
  match Absint.diags sum with
  | [ { Absint.d_kind = Absint.Oob { arr; size; write; _ }; _ } ] ->
    Alcotest.(check string) "array" "a" arr;
    Alcotest.(check int) "size" 64 size;
    Alcotest.(check bool) "write" true write
  | ds ->
    Alcotest.failf "expected exactly one oob, got [%s]"
      (String.concat "; " (List.map Absint.diag_to_string ds))

let test_diag_uninit_scalar () =
  let b = B.create "t" in
  let a = B.array b ~name:"a" ~size:64 () in
  let v = B.fresh b in
  B.region b "main" (fun () -> B.store b a (imm 0) (Hir.Reg v));
  let sum = Absint.analyze (B.finish b) in
  (match Absint.diags sum with
  | [ { Absint.d_kind = Absint.Uninit_scalar { vreg }; _ } ] ->
    Alcotest.(check int) "the fresh vreg" v vreg
  | ds ->
    Alcotest.failf "expected exactly one uninit-scalar, got [%s]"
      (String.concat "; " (List.map Absint.diag_to_string ds)));
  ignore (classes sum)

let test_diag_uninit_cell () =
  let b = B.create "t" in
  let a = B.array b ~name:"a" ~size:64 () in
  let out = B.array b ~name:"out" ~size:8 () in
  B.region b "main" (fun () ->
      B.for_ b ~from:(imm 0) ~limit:(imm 8) (fun i -> B.store b a i (imm 1));
      (* Cell 9 is provably outside the written range [0, 7]. *)
      let x = B.load b a (imm 9) in
      B.store b out (imm 0) x);
  let sum = Absint.analyze (B.finish b) in
  match Absint.diags sum with
  | [ { Absint.d_kind = Absint.Uninit_cell { arr; index }; _ } ] ->
    Alcotest.(check string) "array" "a" arr;
    Alcotest.(check (option int)) "cell" (Some 9) (Dom.is_const index)
  | ds ->
    Alcotest.failf "expected exactly one uninit-cell, got [%s]"
      (String.concat "; " (List.map Absint.diag_to_string ds))

let test_diag_dead_store () =
  let b = B.create "t" in
  let a = B.array b ~name:"a" ~size:64 ~init:(fun _ -> 0) () in
  B.region b "main" (fun () ->
      B.store b a (imm 3) (imm 1);
      B.store b a (imm 3) (imm 2));
  let sum = Absint.analyze (B.finish b) in
  match Absint.diags sum with
  | [ { Absint.d_sid; d_kind = Absint.Dead_store { arr; index; killer_sid }; _ } ] ->
    Alcotest.(check string) "array" "a" arr;
    Alcotest.(check int) "cell" 3 index;
    Alcotest.(check bool) "killed by the later store" true (killer_sid > d_sid)
  | ds ->
    Alcotest.failf "expected exactly one dead-store, got [%s]"
      (String.concat "; " (List.map Absint.diag_to_string ds))

(* An intervening possibly-aliasing read keeps the store alive. *)
let test_dead_store_blocked_by_read () =
  let b = B.create "t" in
  let a = B.array b ~name:"a" ~size:64 ~init:(fun _ -> 0) () in
  let out = B.array b ~name:"out" ~size:8 () in
  B.region b "main" (fun () ->
      B.store b a (imm 3) (imm 1);
      let x = B.load b a (imm 3) in
      B.store b out (imm 0) x;
      B.store b a (imm 3) (imm 2));
  let sum = Absint.analyze (B.finish b) in
  Alcotest.(check (list string)) "no diagnostics" [] (classes sum)

(* --- Zero false positives ---------------------------------------------------- *)

let test_suite_clean () =
  List.iter
    (fun (b : Suite.benchmark) ->
      let sum = Absint.analyze (b.Suite.build ~scale:0.2 ()) in
      Alcotest.(check (list string)) (b.Suite.bench_name ^ " clean") [] (classes sum))
    Suite.all;
  List.iter
    (fun (name, p) ->
      Alcotest.(check (list string)) (name ^ " clean") []
        (classes (Absint.analyze p)))
    (List.map
       (fun (m : Suite.micro) -> (m.Suite.micro_name, m.Suite.micro_build ~scale:0.2 ()))
       Suite.micros)

(* Generated programs are correct by construction: subscripts are masked
   in-bounds and every variable is initialised at its declaration, so
   [oob] and [uninit-scalar] must never fire. Random code does read
   zero-filled cells it never writes, so [uninit-cell] reports are legal —
   but each one is validated against the reference interpreter's concrete
   write set: a report is a false positive exactly when some cell read at
   the reported site was in fact written. Dead stores are ordinary in
   random code and not gated. *)
let test_generated_sound () =
  for seed = 1 to 200 do
    let ast = Gen.program ~seed () in
    let p = Frontend.parse_string ~name:ast.Voltron_lang.Ast.prog_name (Gen.render ast) in
    let sum = Absint.analyze p in
    let written : (Hir.arr * int, unit) Hashtbl.t = Hashtbl.create 64 in
    let loads_at : (int, (Hir.arr * int) list) Hashtbl.t = Hashtbl.create 64 in
    let events =
      {
        Voltron_ir.Interp.null_events with
        Voltron_ir.Interp.on_store = (fun ~sid:_ ~arr ~addr -> Hashtbl.replace written (arr, addr) ());
        on_load =
          (fun ~sid ~arr ~addr ->
            Hashtbl.replace loads_at sid
              ((arr, addr) :: Option.value ~default:[] (Hashtbl.find_opt loads_at sid)));
      }
    in
    ignore (Voltron_ir.Interp.run ~events p);
    List.iter
      (fun (d : Absint.diag) ->
        match Absint.kind_class d.Absint.d_kind with
        | "oob" | "uninit-scalar" ->
          Alcotest.failf "seed %d: %s" seed (Absint.diag_to_string d)
        | "uninit-cell" ->
          List.iter
            (fun cell ->
              if Hashtbl.mem written cell then
                Alcotest.failf "seed %d: false positive (cell was written): %s" seed
                  (Absint.diag_to_string d))
            (Option.value ~default:[] (Hashtbl.find_opt loads_at d.Absint.d_sid))
        | _ -> ())
      (Absint.diags sum)
  done

let () =
  Alcotest.run "absint"
    [
      ( "dom",
        [
          Alcotest.test_case "const arithmetic" `Quick test_dom_const_arith;
          Alcotest.test_case "join congruence" `Quick test_dom_join_congruence;
          Alcotest.test_case "masked and" `Quick test_dom_masked_and;
          Alcotest.test_case "stride" `Quick test_dom_stride;
          Alcotest.test_case "widen" `Quick test_dom_widen;
          Alcotest.test_case "disjoint intervals" `Quick test_dom_disjoint_intervals;
        ] );
      ( "trips",
        [
          Alcotest.test_case "for" `Quick test_for_trips;
          Alcotest.test_case "do-while counter bound" `Quick test_do_while_counter_bound;
          Alcotest.test_case "do-while unbounded" `Quick test_do_while_unbounded;
        ] );
      ( "sites",
        [
          Alcotest.test_case "index and count" `Quick test_site_index_and_count;
          Alcotest.test_case "top-entry region summary" `Quick test_summarize_region_top_entry;
        ] );
      ( "diags",
        [
          Alcotest.test_case "oob" `Quick test_diag_oob;
          Alcotest.test_case "uninit scalar" `Quick test_diag_uninit_scalar;
          Alcotest.test_case "uninit cell" `Quick test_diag_uninit_cell;
          Alcotest.test_case "dead store" `Quick test_diag_dead_store;
          Alcotest.test_case "dead store blocked by read" `Quick test_dead_store_blocked_by_read;
        ] );
      ( "false-positives",
        [
          Alcotest.test_case "suite clean" `Slow test_suite_clean;
          Alcotest.test_case "200 generated programs sound" `Slow test_generated_sound;
        ] );
    ]
