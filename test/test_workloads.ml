(* Tests for the workload suite: every benchmark builds, interprets, and
   its regions carry the intended parallelism character (DOALL loops
   classify as DOALL, ILP kernels reject DOALL and DSWP, etc.). *)

module B = Voltron_ir.Builder
module Hir = Voltron_ir.Hir
module Suite = Voltron_workloads.Suite
module Kernels = Voltron_workloads.Kernels
module Profile = Voltron_analysis.Profile
module Select = Voltron_compiler.Select
module Codegen = Voltron_compiler.Codegen
module Config = Voltron_machine.Config
module Layout = Voltron_ir.Layout
module Rng = Voltron_util.Rng
module Gen = Voltron_gen.Gen

let test_all_build_and_interpret () =
  Alcotest.(check bool) "24+ benchmarks" true (List.length Suite.all >= 24);
  List.iter
    (fun (b : Suite.benchmark) ->
      let p = b.Suite.build ~scale:0.1 () in
      let r = Voltron_ir.Interp.run p in
      Alcotest.(check bool)
        (b.Suite.bench_name ^ " does work")
        true
        (r.Voltron_ir.Interp.dyn_stmts > 100))
    Suite.all

let test_deterministic_builds () =
  let b = Suite.by_name "cjpeg" in
  let r1 = Voltron_ir.Interp.run (b.Suite.build ~scale:0.2 ()) in
  let r2 = Voltron_ir.Interp.run (b.Suite.build ~scale:0.2 ()) in
  Alcotest.(check int) "same checksum across builds" r1.Voltron_ir.Interp.checksum
    r2.Voltron_ir.Interp.checksum

let test_mixes_sum_to_100 () =
  List.iter
    (fun (b : Suite.benchmark) ->
      let m = b.Suite.bench_mix in
      Alcotest.(check int)
        (b.Suite.bench_name ^ " mix")
        100
        (m.Suite.ilp + m.Suite.tlp + m.Suite.llp + m.Suite.seq))
    Suite.all

let plan_of kernel =
  let b = B.create "probe" in
  kernel b;
  let p = B.finish b in
  let machine = Config.default ~n_cores:4 in
  let profile = Profile.collect p in
  Select.plan ~machine ~profile `Hybrid p

let strategy_of kernel =
  match plan_of kernel with
  | [ pr ] -> pr.Select.pr_strategy
  | _ -> Alcotest.fail "expected one region"

let test_doall_dense_classifies () =
  match strategy_of (fun b -> Kernels.doall_dense b ~name:"k" ~n:256 ~work:4 ~seed:1) with
  | Codegen.Doall { dp_speculative = false; _ } -> ()
  | s -> Alcotest.fail ("expected proven doall, got " ^ Select.strategy_name s)

let test_doall_indirect_speculates () =
  match strategy_of (fun b -> Kernels.doall_indirect b ~name:"k" ~n:256 ~work:3 ~seed:1) with
  | Codegen.Doall { dp_speculative = true; _ } -> ()
  | s -> Alcotest.fail ("expected speculative doall, got " ^ Select.strategy_name s)

let test_doall_reduce_has_accumulator () =
  match strategy_of (fun b -> Kernels.doall_reduce b ~name:"k" ~n:256 ~seed:1) with
  | Codegen.Doall { dp_accumulators = [ _ ]; _ } -> ()
  | Codegen.Doall _ -> Alcotest.fail "expected exactly one accumulator"
  | s -> Alcotest.fail ("expected doall, got " ^ Select.strategy_name s)

let test_ilp_kernel_is_coupled () =
  match strategy_of (fun b -> Kernels.ilp_wide b ~name:"k" ~n:512 ~taps:4 ~seed:1) with
  | Codegen.Coupled_ilp -> ()
  | s -> Alcotest.fail ("expected coupled ilp, got " ^ Select.strategy_name s)

let test_strands_kernel_is_decoupled () =
  match
    strategy_of (fun b -> Kernels.strands_streams b ~name:"k" ~n:512 ~streams:3 ~seed:1)
  with
  | Codegen.Strands _ | Codegen.Dswp _ -> ()
  | s -> Alcotest.fail ("expected fine-grain TLP, got " ^ Select.strategy_name s)

let test_micro_programs_interpret () =
  List.iter
    (fun (m : Suite.micro) ->
      let r = Voltron_ir.Interp.run (m.Suite.micro_build ~scale:0.2 ()) in
      Alcotest.(check bool) (m.Suite.micro_name ^ " runs") true
        (r.Voltron_ir.Interp.dyn_stmts > 50))
    Suite.micros

(* --- Equivalence pins ------------------------------------------------------ *)

(* Every suite benchmark and micro at scale 1 and 0.2, then the 32
   programs of fuzz campaign seed 7 (perfbench's fuzz-diff set), with the
   interpreter step bound each set is profiled under. *)
let pinned_programs () =
  let suite scale =
    List.map (fun (b : Suite.benchmark) -> (b.Suite.build ~scale (), None)) Suite.all
    @ List.map (fun (m : Suite.micro) -> (m.Suite.micro_build ~scale (), None)) Suite.micros
  in
  let rng = Rng.create 7 in
  let fuzz =
    List.init 32 (fun k ->
        let ast = Gen.program ~seed:(Rng.next (Rng.split rng k)) () in
        ( Voltron_lang.Frontend.parse_string ~name:ast.Voltron_lang.Ast.prog_name
            (Gen.render ast),
          Some 2_000_000 ))
  in
  suite 1.0 @ suite 0.2 @ fuzz

let md5 buf = Digest.to_hex (Digest.string (Buffer.contents buf))

(* Each program's initial memory as dense words over its whole layout. *)
let images_md5 = "847b98142343d6a2af8e503e229cecd4"

let test_images_pinned () =
  let buf = Buffer.create (1 lsl 16) in
  List.iter
    (fun ((p : Hir.program), _) ->
      let lay = Layout.compute p in
      let words = Array.make (Layout.mem_size lay) 0 in
      let image = Layout.mem_init lay p in
      Array.blit image 0 words 0 (Array.length image);
      Printf.bprintf buf "%s %d\n" p.Hir.prog_name (Array.length words);
      Array.iter (fun w -> Printf.bprintf buf "%d " w) words)
    (pinned_programs ());
  Alcotest.(check string) "digest" images_md5 (md5 buf)

(* Every sid's profile facts, from the interpreter run and from the
   abstract interpreter. *)
let profiles_md5 = "15a286a399a3f67fb472342abd700f6d"

let test_profiles_pinned () =
  let buf = Buffer.create (1 lsl 16) in
  List.iter
    (fun ((p : Hir.program), max_steps) ->
      List.iter
        (fun (kind, prof) ->
          Printf.bprintf buf "%s %s\n" p.Hir.prog_name kind;
          List.iter
            (fun (r : Hir.region) ->
              Hir.iter_stmts
                (fun (st : Hir.stmt) ->
                  let sid = st.Hir.sid in
                  Printf.bprintf buf "%d %h %b %h %d %d\n" sid (Profile.avg_trip prof sid)
                    (Profile.has_cross_raw prof sid) (Profile.miss_rate prof sid)
                    (Profile.access_count prof sid) (Profile.dyn_count prof sid))
                r.Hir.stmts)
            p.Hir.regions)
        [ ("collect", Profile.collect ?max_steps p); ("static", Profile.of_static p) ])
    (pinned_programs ());
  Alcotest.(check string) "digest" profiles_md5 (md5 buf)

let () =
  Alcotest.run "workloads"
    [
      ( "suite",
        [
          Alcotest.test_case "all build" `Quick test_all_build_and_interpret;
          Alcotest.test_case "deterministic" `Quick test_deterministic_builds;
          Alcotest.test_case "mixes" `Quick test_mixes_sum_to_100;
          Alcotest.test_case "micros" `Quick test_micro_programs_interpret;
        ] );
      ( "classification",
        [
          Alcotest.test_case "dense doall" `Quick test_doall_dense_classifies;
          Alcotest.test_case "indirect speculative" `Quick test_doall_indirect_speculates;
          Alcotest.test_case "reduce accumulator" `Quick test_doall_reduce_has_accumulator;
          Alcotest.test_case "ilp coupled" `Quick test_ilp_kernel_is_coupled;
          Alcotest.test_case "strands decoupled" `Quick test_strands_kernel_is_decoupled;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "initial images pinned" `Quick test_images_pinned;
          Alcotest.test_case "profiles pinned" `Quick test_profiles_pinned;
        ] );
    ]
