(* Tests for the VC front end: lexing, parsing (including error
   positions), elaboration scoping rules, end-to-end agreement with the
   hand-built IR, compile-and-verify of parsed programs, and a
   print/reparse round-trip property over random ASTs. *)

module Lexer = Voltron_lang.Lexer
module Parser = Voltron_lang.Parser
module Ast = Voltron_lang.Ast
module Frontend = Voltron_lang.Frontend
module Rng = Voltron_util.Rng

(* --- Lexer -------------------------------------------------------------------- *)

let tokens src = List.map fst (Lexer.tokenize src)

let test_lex_basic () =
  Alcotest.(check bool) "operators" true
    (tokens "a<<2>>=b&&c||!="
    = [
        Lexer.IDENT "a"; Lexer.SHL; Lexer.INT 2; Lexer.SHR; Lexer.ASSIGN;
        Lexer.IDENT "b"; Lexer.AMPAMP; Lexer.IDENT "c"; Lexer.PIPEPIPE;
        Lexer.NE; Lexer.EOF;
      ]);
  Alcotest.(check bool) "keywords vs idents" true
    (tokens "for forx if iffy"
    = [ Lexer.KW_FOR; Lexer.IDENT "forx"; Lexer.KW_IF; Lexer.IDENT "iffy"; Lexer.EOF ])

let test_lex_comments () =
  Alcotest.(check bool) "line and block comments" true
    (tokens "1 // x\n /* y \n z */ 2" = [ Lexer.INT 1; Lexer.INT 2; Lexer.EOF ])

let test_lex_positions () =
  match Lexer.tokenize "ab\n  cd" with
  | [ (_, p1); (_, p2); _ ] ->
    Alcotest.(check (pair int int)) "first" (1, 1) (p1.Ast.line, p1.Ast.col);
    Alcotest.(check (pair int int)) "second" (2, 3) (p2.Ast.line, p2.Ast.col)
  | _ -> Alcotest.fail "two tokens expected"

let test_lex_error () =
  Alcotest.(check bool) "bad char reported" true
    (try
       ignore (Lexer.tokenize "a @ b");
       false
     with Lexer.Error (p, _) -> p.Ast.line = 1 && p.Ast.col = 3)

let test_lex_unterminated_comment () =
  Alcotest.(check bool) "unterminated" true
    (try
       ignore (Lexer.tokenize "1 /* never closed");
       false
     with Lexer.Error (_, msg) -> msg = "unterminated block comment")

(* --- Parser -------------------------------------------------------------------- *)

let test_parse_precedence () =
  (* 1 + 2 * 3 < 4 << 1  parses as  (1 + (2*3)) < (4 << 1) *)
  match Parser.parse_expr "1 + 2 * 3 < 4 << 1" with
  | Ast.Bin (Ast.Lt, Ast.Bin (Ast.Add, _, Ast.Bin (Ast.Mul, _, _)),
      Ast.Bin (Ast.Shl, _, _)) ->
    ()
  | _ -> Alcotest.fail "wrong precedence"

let test_parse_ternary_nests () =
  match Parser.parse_expr "a ? b : c ? d : e" with
  | Ast.Ternary (_, Ast.Var ("b", _), Ast.Ternary (_, _, _)) -> ()
  | _ -> Alcotest.fail "ternary should right-associate"

let test_parse_left_assoc () =
  match Parser.parse_expr "10 - 3 - 2" with
  | Ast.Bin (Ast.Sub, Ast.Bin (Ast.Sub, Ast.Int 10, Ast.Int 3), Ast.Int 2) -> ()
  | _ -> Alcotest.fail "subtraction should left-associate"

let test_parse_program_shape () =
  let p =
    Parser.parse ~name:"t"
      "array a[8]; region r { var x = 1; for (i = 0; i < 8; i += 2) { a[i] = x; } }"
  in
  Alcotest.(check int) "one array" 1 (List.length p.Ast.decls);
  Alcotest.(check int) "one region" 1 (List.length p.Ast.regions);
  match (List.hd p.Ast.regions).Ast.reg_body with
  | [ Ast.Decl _; Ast.For { step = 2; _ } ] -> ()
  | _ -> Alcotest.fail "unexpected region body"

let contains haystack needle =
  let lh = String.length haystack and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub haystack i ln = needle || go (i + 1)) in
  go 0

let expect_parse_error src check_msg =
  match Parser.parse ~name:"t" src with
  | _ -> Alcotest.fail "parse should have failed"
  | exception Parser.Error (pos, msg) ->
    Alcotest.(check bool)
      (Printf.sprintf "message %S mentions expectation" msg)
      true (check_msg msg);
    Alcotest.(check bool) "position is set" true (pos.Ast.line >= 1)

let test_parse_errors () =
  expect_parse_error "region r { var = 1; }" (fun m -> contains m "variable name");
  expect_parse_error "region r { for (i = 0; j < 8; i += 1) { } }" (fun m ->
      contains m "must test");
  expect_parse_error "region r { for (i = 0; i < 8; i += 0) { } }" (fun m ->
      contains m "positive");
  expect_parse_error "array a[4] = pi();" (fun m -> contains m "random")

(* --- Elaboration ---------------------------------------------------------------- *)

let expect_elab_error src check_msg =
  match Frontend.parse_string ~name:"t" src with
  | _ -> Alcotest.fail "elaboration should have failed"
  | exception Frontend.Error { msg; _ } ->
    Alcotest.(check bool) (Printf.sprintf "message %S" msg) true (check_msg msg)

let test_elab_scoping_errors () =
  expect_elab_error "region r { x = 1; }" (fun m -> contains m "unknown name");
  expect_elab_error "region r { for (i = 0; i < 4; i += 1) { i = 2; } }" (fun m ->
      contains m "loop variable");
  expect_elab_error "array a[4]; region r { a = 1; }" (fun m ->
      contains m "array");
  expect_elab_error "region r { var x = 1; var y = x[2]; }" (fun m ->
      contains m "scalar");
  (* Region locality: scalars do not leak into the next region. *)
  expect_elab_error "array a[4]; region r1 { var x = 1; a[0] = x; } region r2 { a[1] = x; }"
    (fun m -> contains m "unknown name")

(* Exact positions: the fuzzer's triage workflow jumps straight from a
   diagnostic to the offending token, so elaboration errors must carry
   the position of the name that failed, not of the enclosing statement. *)
let expect_error_at src ~line ~col check_msg =
  match Frontend.parse_string ~name:"t" src with
  | _ -> Alcotest.fail "elaboration should have failed"
  | exception Frontend.Error { line = l; col = c; msg } ->
    Alcotest.(check bool) (Printf.sprintf "message %S" msg) true (check_msg msg);
    Alcotest.(check (pair int int))
      (Printf.sprintf "position of %S" msg)
      (line, col) (l, c)

let test_elab_error_positions () =
  expect_error_at "region r {\n  x = 1;\n}" ~line:2 ~col:3 (fun m ->
      contains m "unknown name 'x'");
  expect_error_at "region r {\n  var y = 1 + zz;\n}" ~line:2 ~col:15 (fun m ->
      contains m "unknown name 'zz'");
  expect_error_at "region r {\n  for (i = 0; i < 4; i += 1) {\n    i = 2;\n  }\n}"
    ~line:3 ~col:5 (fun m -> contains m "loop variable 'i'");
  (* The loop variable's scope ends with the loop body. *)
  expect_error_at "region r {\n  for (i = 0; i < 4; i += 1) {\n  }\n  var y = i;\n}"
    ~line:4 ~col:11 (fun m -> contains m "unknown name 'i'");
  (* A declaration inside an if-branch does not escape the branch. *)
  expect_error_at "region r {\n  if (1) {\n    var x = 1;\n  } else {\n  }\n  x = 2;\n}"
    ~line:6 ~col:3 (fun m -> contains m "unknown name 'x'");
  (* ... nor does one inside a do/while body escape the loop. *)
  expect_error_at
    "region r {\n  var t = 2;\n  do {\n    var w = 1;\n    t = t - 1;\n  } while ((t > 0));\n  var z = w;\n}"
    ~line:7 ~col:11 (fun m -> contains m "unknown name 'w'");
  expect_error_at "array a[4];\nregion r {\n  a = 1;\n}" ~line:3 ~col:3 (fun m ->
      contains m "array");
  expect_error_at "region r {\n  var x = 1;\n  var y = x[2];\n}" ~line:3 ~col:11
    (fun m -> contains m "scalar");
  expect_error_at
    "array a[4];\nregion r1 {\n  var x = 1;\n}\nregion r2 {\n  a[0] = x;\n}"
    ~line:6 ~col:10 (fun m -> contains m "unknown name 'x'")

(* Shadowing a loop variable with a scalar declaration is legal and lifts
   the no-assignment rule for the inner name — the assignment targets the
   new scalar while the loop's own counter is untouched. (The fuzzer
   generator leans on exactly this rule; a seed-103 campaign crash traced
   to its env handling of this case.) *)
let test_elab_shadow_loop_var () =
  let p =
    Frontend.parse_string ~name:"t"
      "array out[4];\n\
       region r {\n\
         var s = 0;\n\
         for (i = 0; i < 3; i += 1) {\n\
           var i = 10;\n\
           i = i + 1;\n\
           s = s + i;\n\
         }\n\
         out[0] = s;\n\
       }"
  in
  let r = Voltron_ir.Interp.run p in
  Alcotest.(check int) "three iterations of 11" 33
    (Voltron_mem.Memory.read r.Voltron_ir.Interp.memory 0)

let test_elab_shadowing () =
  (* Inner declarations shadow without clobbering the outer binding. *)
  let p =
    Frontend.parse_string ~name:"t"
      "array out[4];\n\
       region r {\n\
         var x = 1;\n\
         if (1) { var x = 10; out[0] = x; } else { }\n\
         out[1] = x;\n\
       }"
  in
  let r = Voltron_ir.Interp.run p in
  Alcotest.(check int) "inner x" 10 (Voltron_mem.Memory.read r.Voltron_ir.Interp.memory 0);
  Alcotest.(check int) "outer x intact" 1
    (Voltron_mem.Memory.read r.Voltron_ir.Interp.memory 1)

let test_elab_semantics () =
  let p =
    Frontend.parse_string ~name:"t"
      "array out[8];\n\
       region r {\n\
         out[0] = 7 / 2;\n\
         out[1] = 7 % 2;\n\
         out[2] = 5 / 0;          // total semantics: 0\n\
         out[3] = (3 < 5) && (2 > 1);\n\
         out[4] = 0 || 42;        // normalised to 0/1\n\
         out[5] = 1 ? 11 : 22;\n\
         out[6] = -(3 - 10);\n\
         out[7] = (1 << 5) >> 2;\n\
       }"
  in
  let r = Voltron_ir.Interp.run p in
  let read i = Voltron_mem.Memory.read r.Voltron_ir.Interp.memory i in
  Alcotest.(check (list int)) "values" [ 3; 1; 0; 1; 1; 11; 7; 8 ]
    (List.init 8 read)

let test_elab_matches_builder () =
  (* The same computation written in VC and against the Builder agree. *)
  let vc =
    Frontend.parse_string ~name:"t"
      "array src[64] = fill(i * 3 % 17);\n\
       array dst[64];\n\
       region main {\n\
         var acc = 0;\n\
         for (i = 0; i < 64; i += 1) {\n\
           var v = src[i];\n\
           dst[i] = v * v + 1;\n\
           acc = acc + v;\n\
         }\n\
         dst[0] = acc;\n\
       }"
  in
  let module B = Voltron_ir.Builder in
  let b = B.create "t" in
  let src = B.array b ~name:"src" ~size:64 ~init:(fun i -> i * 3 mod 17) () in
  let dst = B.array b ~name:"dst" ~size:64 () in
  B.region b "main" (fun () ->
      let acc = B.fresh b in
      B.assign b acc (Voltron_ir.Hir.Operand (B.imm 0));
      B.for_ b ~from:(B.imm 0) ~limit:(B.imm 64) (fun i ->
          let v = B.load b src i in
          B.store b dst i (B.add b (B.mul b v v) (B.imm 1));
          B.assign b acc (Voltron_ir.Hir.Alu (Voltron_isa.Inst.Add, Voltron_ir.Hir.Reg acc, v)));
      B.store b dst (B.imm 0) (Voltron_ir.Hir.Reg acc));
  let built = B.finish b in
  let r1 = Voltron_ir.Interp.run vc and r2 = Voltron_ir.Interp.run built in
  Alcotest.(check int) "same memory image" r1.Voltron_ir.Interp.checksum
    r2.Voltron_ir.Interp.checksum

let find_example file =
  let candidates =
    [
      "../examples/programs/" ^ file;  (* dune runtest cwd *)
      "examples/programs/" ^ file;  (* repository root *)
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some path -> path
  | None -> Alcotest.fail ("cannot locate example " ^ file)

let test_example_files_compile_and_verify () =
  List.iter
    (fun file ->
      let path = find_example file in
      let p = Frontend.parse_file path in
      List.iter
        (fun choice ->
          let m = Voltron.Run.run ~choice ~n_cores:4 p in
          Alcotest.(check bool) (path ^ " verified") true m.Voltron.Run.verified)
        [ `Seq; `Hybrid ])
    [ "gsm_fig7.vc"; "histogram.vc"; "filter.vc"; "checksum.vc" ]

(* Assignment fusion: a VC reduction must elaborate to the accumulator
   shape the DOALL classifier recognises (sum = sum + c as one statement,
   not a copy through a temporary). *)
let test_vc_reduction_is_doall () =
  let p =
    Frontend.parse_string ~name:"t"
      "array src[256] = fill(i % 97);\n\
       array out[4];\n\
       region reduce {\n\
         var sum = 0;\n\
         for (i = 0; i < 256; i += 1) { sum = sum + src[i]; }\n\
         out[0] = sum;\n\
       }"
  in
  let machine = Voltron_machine.Config.default ~n_cores:4 in
  let profile = Voltron_analysis.Profile.collect p in
  let plan = Voltron_compiler.Select.plan ~machine ~profile `Hybrid p in
  match plan with
  | [ pr ] -> (
    match pr.Voltron_compiler.Select.pr_strategy with
    | Voltron_compiler.Codegen.Doall { dp_accumulators = [ _ ]; _ } -> ()
    | s ->
      Alcotest.fail
        ("expected doall with one accumulator, got "
        ^ Voltron_compiler.Select.strategy_name s))
  | _ -> Alcotest.fail "one region expected"

(* --- Round trip property ---------------------------------------------------------- *)

let random_expr rng depth =
  let rec go depth =
    if depth = 0 then
      if Rng.bool rng then Ast.Int (Rng.in_range rng 0 99)
      else Ast.Var ("x", { Ast.line = 0; col = 0 })
    else
      match Rng.int rng 4 with
      | 0 ->
        let ops =
          [| Ast.Add; Ast.Sub; Ast.Mul; Ast.Div; Ast.Rem; Ast.And; Ast.Or;
             Ast.Xor; Ast.Shl; Ast.Shr; Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge;
             Ast.Eq; Ast.Ne; Ast.Land; Ast.Lor |]
        in
        Ast.Bin (Rng.pick rng ops, go (depth - 1), go (depth - 1))
      | 1 -> Ast.Neg (go (depth - 1))
      | 2 -> Ast.Ternary (go (depth - 1), go (depth - 1), go (depth - 1))
      | _ -> Ast.Index ("a", go (depth - 1), { Ast.line = 0; col = 0 })
  in
  go depth

let rec strip_expr (e : Ast.expr) : Ast.expr =
  let zero = { Ast.line = 0; col = 0 } in
  match e with
  | Ast.Int i -> Ast.Int i
  | Ast.Var (x, _) -> Ast.Var (x, zero)
  | Ast.Index (a, i, _) -> Ast.Index (a, strip_expr i, zero)
  | Ast.Bin (op, x, y) -> Ast.Bin (op, strip_expr x, strip_expr y)
  | Ast.Neg x -> Ast.Neg (strip_expr x)
  | Ast.Ternary (c, t, f) -> Ast.Ternary (strip_expr c, strip_expr t, strip_expr f)

let test_expr_roundtrip =
  QCheck.Test.make ~name:"print/reparse expression round trip" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let e = random_expr rng (Rng.in_range rng 1 4) in
      let text = Ast.expr_to_string e in
      let e' = Parser.parse_expr text in
      strip_expr e' = strip_expr e)

let () =
  Alcotest.run "lang"
    [
      ( "lexer",
        [
          Alcotest.test_case "tokens" `Quick test_lex_basic;
          Alcotest.test_case "comments" `Quick test_lex_comments;
          Alcotest.test_case "positions" `Quick test_lex_positions;
          Alcotest.test_case "bad char" `Quick test_lex_error;
          Alcotest.test_case "unterminated comment" `Quick test_lex_unterminated_comment;
        ] );
      ( "parser",
        [
          Alcotest.test_case "precedence" `Quick test_parse_precedence;
          Alcotest.test_case "ternary" `Quick test_parse_ternary_nests;
          Alcotest.test_case "associativity" `Quick test_parse_left_assoc;
          Alcotest.test_case "program shape" `Quick test_parse_program_shape;
          Alcotest.test_case "errors" `Quick test_parse_errors;
        ] );
      ( "elab",
        [
          Alcotest.test_case "scoping errors" `Quick test_elab_scoping_errors;
          Alcotest.test_case "error positions" `Quick test_elab_error_positions;
          Alcotest.test_case "shadowing" `Quick test_elab_shadowing;
          Alcotest.test_case "loop-var shadowing" `Quick test_elab_shadow_loop_var;
          Alcotest.test_case "semantics" `Quick test_elab_semantics;
          Alcotest.test_case "matches builder" `Quick test_elab_matches_builder;
          Alcotest.test_case "example files" `Slow test_example_files_compile_and_verify;
          Alcotest.test_case "reduction is doall" `Quick test_vc_reduction_is_doall;
        ] );
      ("property", [ QCheck_alcotest.to_alcotest test_expr_roundtrip ]);
    ]
