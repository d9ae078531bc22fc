(* Tests for the ISA layer: def/use extraction, unit classes, bundle
   legality, image label resolution, shared arithmetic semantics. *)

module Inst = Voltron_isa.Inst
module Bundle = Voltron_isa.Bundle
module Image = Voltron_isa.Image
module Semantics = Voltron_isa.Semantics

let reg r = Inst.Reg r
let imm i = Inst.Imm i

let add = Inst.Alu { op = Inst.Add; dst = 1; src1 = reg 2; src2 = imm 3 }
let load = Inst.Load { dst = 4; base = imm 100; offset = reg 5 }
let store = Inst.Store { base = imm 0; offset = reg 1; src = reg 2 }
let put = Inst.Put { dir = Inst.East; src = reg 7 }
let get = Inst.Get { dir = Inst.West; dst = 8 }
let br = Inst.Br { btr = 0; pred = Some (reg 9); invert = false }

let test_defs_uses () =
  Alcotest.(check (list int)) "add defs" [ 1 ] (Inst.defs add);
  Alcotest.(check (list int)) "add uses" [ 2 ] (Inst.uses add);
  Alcotest.(check (list int)) "load defs" [ 4 ] (Inst.defs load);
  Alcotest.(check (list int)) "load uses" [ 5 ] (Inst.uses load);
  Alcotest.(check (list int)) "store defs" [] (Inst.defs store);
  Alcotest.(check (list int)) "store uses" [ 1; 2 ] (Inst.uses store);
  Alcotest.(check (list int)) "br uses" [ 9 ] (Inst.uses br);
  Alcotest.(check (list int)) "get defs" [ 8 ] (Inst.defs get)

let test_unit_classes () =
  let open Inst in
  Alcotest.(check bool) "add compute" true (unit_class add = Compute);
  Alcotest.(check bool) "load memory" true (unit_class load = Memory);
  Alcotest.(check bool) "put comm" true (unit_class put = Commun);
  Alcotest.(check bool) "br control" true (unit_class br = Control)

let test_bundle_legality () =
  let w = Bundle.legal ~issue_width:1 ~comm_width:1 in
  Alcotest.(check bool) "main+comm ok" true (w [ add; put ]);
  Alcotest.(check bool) "two main bad" false (w [ add; load ]);
  Alcotest.(check bool) "two comm bad" false (w [ put; get ]);
  Alcotest.(check bool) "empty ok" true (w []);
  Alcotest.(check bool) "nop ignored" true (w [ add; Inst.Nop ]);
  Alcotest.(check bool) "br counts as main" false (w [ add; br ])

let test_bundle_branch () =
  Alcotest.(check bool) "finds branch" true (Bundle.branch [ add; br ] = Some br);
  Alcotest.(check bool) "no branch" true (Bundle.branch [ add ] = None)

let test_image_labels () =
  let b = Image.builder () in
  Image.place_label b "start";
  Image.emit b [ add ];
  Image.place_label b "mid";
  Image.emit b [ load ];
  let img = Image.finish b in
  Alcotest.(check int) "start addr" 0 (Image.resolve img "start");
  Alcotest.(check int) "mid addr" 1 (Image.resolve img "mid");
  Alcotest.(check bool) "missing label" true
    (try
       ignore (Image.resolve img "nope");
       false
     with Not_found -> true)

let test_image_duplicate_label () =
  let b = Image.builder () in
  Image.place_label b "x";
  Alcotest.(check bool) "duplicate rejected" true
    (try
       Image.place_label b "x";
       false
     with Invalid_argument _ -> true)

let test_image_dangling_label () =
  (* A label placed after the last bundle must still resolve. *)
  let b = Image.builder () in
  Image.emit b [ add ];
  Image.place_label b "end";
  let img = Image.finish b in
  Alcotest.(check int) "dangling label gets a pad" 1 (Image.resolve img "end");
  Alcotest.(check bool) "pad fetchable" true (Image.fetch img 1 <> [])

let test_semantics_total () =
  Alcotest.(check int) "div by zero" 0 (Semantics.alu Inst.Div 5 0);
  Alcotest.(check int) "rem by zero" 0 (Semantics.alu Inst.Rem 5 0);
  Alcotest.(check int) "div" 3 (Semantics.alu Inst.Div 7 2);
  Alcotest.(check int) "shl" 8 (Semantics.alu Inst.Shl 1 3);
  Alcotest.(check int) "fadd is integer add" 7 (Semantics.fpu Inst.Fadd 3 4);
  Alcotest.(check int) "cmp true" 1 (Semantics.cmp Inst.Lt 1 2);
  Alcotest.(check int) "cmp false" 0 (Semantics.cmp Inst.Lt 2 1)

let test_semantics_shift_mask =
  QCheck.Test.make ~name:"shifts never raise" ~count:500
    QCheck.(pair int int)
    (fun (a, b) ->
      ignore (Semantics.alu Inst.Shl a b);
      ignore (Semantics.alu Inst.Shr a b);
      true)

let test_printing_roundtrippable () =
  (* Every constructor prints without raising and non-trivially. *)
  let ops =
    [
      add; load; store; put; get; br;
      Inst.Fpu { op = Inst.Fmul; dst = 0; src1 = imm 1; src2 = imm 2 };
      Inst.Cmp { op = Inst.Ge; dst = 0; src1 = reg 1; src2 = imm 2 };
      Inst.Select { dst = 0; pred = reg 1; if_true = imm 2; if_false = imm 3 };
      Inst.Mov { dst = 0; src = imm 1 };
      Inst.Pbr { btr = 1; target = "foo" };
      Inst.Bcast { src = reg 3 };
      Inst.Getb { dst = 3 };
      Inst.Send { target = 2; src = imm 9 };
      Inst.Recv { sender = 1; dst = 3; kind = Inst.Rv_pred };
      Inst.Spawn { target = 1; entry = "worker" };
      Inst.Sleep;
      Inst.Mode_switch Inst.Coupled;
      Inst.Tm_begin;
      Inst.Tm_commit;
      Inst.Halt;
      Inst.Nop;
    ]
  in
  List.iter
    (fun op -> Alcotest.(check bool) "prints" true (String.length (Inst.to_string op) > 0))
    ops

(* --- Assembler ----------------------------------------------------------------- *)

module Asm = Voltron_isa.Asm
module Program = Voltron_isa.Program

let asm_src = {s|
.memory 128
.init 5 7

=== core 0 ===
start:
    spawn c1, entry
    load r1 = [#5 + #0]
    add r2 = r1, #35
    cmp.lt r3 = r2, #100
    pbr b0 = done
    br b0 if r3
    mov r2 = #0
done:
    store [#0 + #0] = r2
    select r4 = r3 ? #1 : #2 || send c1, r2
    recv.sync r5 = c1
    halt

=== core 1 ===
entry:
    recv r1 = c0
    store [#1 + #0] = r1 || send c0, #1
    sleep
|s}

let test_asm_parse () =
  let p = Asm.parse asm_src in
  Alcotest.(check int) "two cores" 2 (Program.n_cores p);
  Alcotest.(check int) "memory" 128 p.Program.mem_size;
  Alcotest.(check bool) "init" true (p.Program.mem_init = [| 0; 0; 0; 0; 0; 7 |]);
  Alcotest.(check int) "label done" 7
    (Voltron_isa.Image.resolve p.Program.images.(0) "done")

let test_asm_executes () =
  let p = Asm.parse asm_src in
  let machine =
    Voltron_machine.Machine.create
      (Voltron_machine.Config.default ~n_cores:2)
      p
  in
  (match (Voltron_machine.Machine.run machine).Voltron_machine.Machine.outcome with
  | Voltron_machine.Machine.Finished -> ()
  | _ -> Alcotest.fail "asm program did not finish");
  let mem = Voltron_machine.Machine.memory machine in
  Alcotest.(check int) "7 + 35" 42 (Voltron_mem.Memory.read mem 0);
  Alcotest.(check int) "worker got it" 42 (Voltron_mem.Memory.read mem 1)

let test_asm_roundtrip_compiled () =
  (* Disassembly of real compiled programs reassembles byte-identically. *)
  List.iter
    (fun (choice, cores) ->
      let prog = Voltron_workloads.Suite.micro_gsm_llp ~scale:0.05 () in
      let machine = Voltron_machine.Config.default ~n_cores:cores in
      let compiled =
        Voltron_compiler.Driver.compile ~machine ~choice prog
      in
      let original = compiled.Voltron_compiler.Driver.executable in
      let text1 = Format.asprintf "%a" Program.pp original in
      let back = Asm.parse text1 in
      let back =
        Program.make ~images:back.Program.images
          ~mem_size:original.Program.mem_size
          ~mem_init:original.Program.mem_init
      in
      let text2 = Format.asprintf "%a" Program.pp back in
      Alcotest.(check string) "identical disassembly" text1 text2)
    [ (`Hybrid, 4); (`Ilp, 2); (`Tlp, 4); (`Seq, 1) ]

let test_asm_errors () =
  let expect src frag =
    match Asm.parse src with
    | _ -> Alcotest.fail "should not parse"
    | exception Asm.Error (line, msg) ->
      Alcotest.(check bool)
        (Printf.sprintf "line %d: %s" line msg)
        true
        (line >= 0
        &&
        let lh = String.length msg and lf = String.length frag in
        let rec go i =
          i + lf <= lh && (String.sub msg i lf = frag || go (i + 1))
        in
        go 0)
  in
  expect "=== core 0 ===\n    frobnicate r1\n" "unknown mnemonic";
  expect "    nop\n" "before any";
  expect "=== core 0 ===\n    add r1 = r2\n" "comma";
  expect "" "no cores"

(* Random single-core programs: print -> parse -> print is identity. *)
let test_asm_roundtrip_random =
  QCheck.Test.make ~name:"assembler roundtrip on random programs" ~count:100
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Voltron_util.Rng.create seed in
      let b = Image.builder () in
      let n = Voltron_util.Rng.in_range rng 1 12 in
      for k = 0 to n - 1 do
        if Voltron_util.Rng.chance rng 0.3 then
          Image.place_label b (Printf.sprintf "lbl_%d" k);
        let op =
          match Voltron_util.Rng.int rng 10 with
          | 0 ->
            Inst.Alu
              {
                op = Voltron_util.Rng.pick rng [| Inst.Add; Inst.Mul; Inst.Xor; Inst.Shr |];
                dst = Voltron_util.Rng.int rng 16;
                src1 = reg (Voltron_util.Rng.int rng 16);
                src2 = imm (Voltron_util.Rng.in_range rng (-9) 99);
              }
          | 1 ->
            Inst.Cmp
              {
                op = Voltron_util.Rng.pick rng [| Inst.Lt; Inst.Ge; Inst.Ne |];
                dst = Voltron_util.Rng.int rng 16;
                src1 = reg (Voltron_util.Rng.int rng 16);
                src2 = imm (Voltron_util.Rng.int rng 50);
              }
          | 2 -> Inst.Load { dst = 1; base = imm 0; offset = reg 2 }
          | 3 -> Inst.Store { base = imm 4; offset = reg 1; src = reg 3 }
          | 4 ->
            Inst.Select { dst = 5; pred = reg 1; if_true = imm 2; if_false = reg 3 }
          | 5 -> Inst.Send { target = 1; src = imm (Voltron_util.Rng.int rng 9) }
          | 6 -> Inst.Recv { sender = 1; dst = 2; kind = Inst.Rv_pred }
          | 7 -> Inst.Put { dir = Inst.East; src = reg 1 }
          | 8 -> Inst.Mov { dst = 3; src = imm (Voltron_util.Rng.int rng 100) }
          | _ -> Inst.Nop
        in
        Image.emit b [ op ]
      done;
      Image.emit b [ Inst.Halt ];
      let prog =
        Program.make ~images:[| Image.finish b |] ~mem_size:64 ~mem_init:[||]
      in
      let t1 = Format.asprintf "%a" Program.pp prog in
      let back = Asm.parse t1 in
      let back =
        Program.make ~images:back.Program.images ~mem_size:64 ~mem_init:[||]
      in
      t1 = Format.asprintf "%a" Program.pp back)

let () =
  Alcotest.run "isa"
    [
      ( "inst",
        [
          Alcotest.test_case "defs/uses" `Quick test_defs_uses;
          Alcotest.test_case "unit classes" `Quick test_unit_classes;
          Alcotest.test_case "printing" `Quick test_printing_roundtrippable;
        ] );
      ( "bundle",
        [
          Alcotest.test_case "legality" `Quick test_bundle_legality;
          Alcotest.test_case "branch" `Quick test_bundle_branch;
        ] );
      ( "image",
        [
          Alcotest.test_case "labels" `Quick test_image_labels;
          Alcotest.test_case "duplicate label" `Quick test_image_duplicate_label;
          Alcotest.test_case "dangling label" `Quick test_image_dangling_label;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "total ops" `Quick test_semantics_total;
          QCheck_alcotest.to_alcotest test_semantics_shift_mask;
        ] );
      ( "asm",
        [
          Alcotest.test_case "parse" `Quick test_asm_parse;
          Alcotest.test_case "executes" `Quick test_asm_executes;
          Alcotest.test_case "roundtrip" `Quick test_asm_roundtrip_compiled;
          Alcotest.test_case "errors" `Quick test_asm_errors;
          QCheck_alcotest.to_alcotest test_asm_roundtrip_random;
        ] );
    ]
