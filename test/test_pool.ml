(* The domain pool (lib/pool): the determinism contract — results by
   input index, jobs=1 as the serial reference, frontier-ordered emit —
   plus the concurrency behaviours a deadlock or lost cell would break:
   exception propagation, nested calls from inside a cell, reuse after
   failure, and the [jobs] bound on cells running at once. The last two
   groups close the loop at the user level: a differential matrix and a
   whole fuzz campaign must be identical between -j 1 and -j 4,
   transcripts included. *)

module Pool = Voltron_pool.Pool
module Campaign = Voltron_gen.Campaign
module Gen = Voltron_gen.Gen
module Run = Voltron.Run
module Frontend = Voltron_lang.Frontend

(* --- parallel_map semantics ---------------------------------------------- *)

let test_order_preserved () =
  let n = 2000 in
  let f x =
    (* uneven work so completion order differs from input order *)
    let acc = ref x in
    for _ = 1 to 1 + (x mod 97) * 50 do
      acc := (!acc * 31) land 0xFFFF
    done;
    (x, !acc)
  in
  let xs = Array.init n (fun i -> i) in
  let serial = Array.map f xs in
  let par = Pool.parallel_map ~jobs:4 f xs in
  Alcotest.(check bool) "jobs=4 matches serial map" true (par = serial)

let test_serial_reference () =
  (* jobs=1 must be a plain left-to-right map: side effects in index
     order, no domains involved. *)
  let visited = ref [] in
  let f x =
    visited := x :: !visited;
    x * x
  in
  let xs = Array.init 100 (fun i -> i) in
  let r = Pool.parallel_map ~jobs:1 f xs in
  Alcotest.(check bool) "results" true (r = Array.map (fun x -> x * x) xs);
  Alcotest.(check (list int)) "left-to-right side-effect order"
    (List.init 100 (fun i -> i))
    (List.rev !visited)

let test_edge_sizes () =
  Alcotest.(check bool) "empty" true (Pool.parallel_map ~jobs:4 succ [||] = [||]);
  Alcotest.(check bool) "singleton" true
    (Pool.parallel_map ~jobs:4 succ [| 41 |] = [| 42 |])

let test_emit_ordered () =
  let n = 500 in
  let f x =
    let acc = ref x in
    for _ = 1 to 1 + (x mod 13) * 200 do
      acc := (!acc * 17) land 0xFFFF
    done;
    x
  in
  List.iter
    (fun jobs ->
      let emitted = ref [] in
      let r =
        Pool.parallel_map_emit ~jobs
          ~emit:(fun i v -> emitted := (i, v) :: !emitted)
          f
          (Array.init n (fun i -> i))
      in
      Alcotest.(check int)
        (Printf.sprintf "jobs=%d emits every cell" jobs)
        n
        (List.length !emitted);
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d emits in index order with cell results" jobs)
        true
        (List.rev !emitted = List.init n (fun i -> (i, f i)));
      Alcotest.(check bool) "returned array intact" true
        (r = Array.init n (fun i -> i)))
    [ 1; 4 ]

let test_exception_propagates () =
  let f x = if x = 37 then failwith "boom" else x in
  (match Pool.parallel_map ~jobs:4 f (Array.init 200 (fun i -> i)) with
  | _ -> Alcotest.fail "expected the cell's exception"
  | exception Failure s -> Alcotest.(check string) "original exception" "boom" s);
  (* The pool survives a failed batch: the next map runs normally. *)
  let r = Pool.parallel_map ~jobs:4 succ (Array.init 200 (fun i -> i)) in
  Alcotest.(check bool) "usable after failure" true
    (r = Array.init 200 (fun i -> i + 1))

let test_emit_exception_propagates () =
  (match
     Pool.parallel_map_emit ~jobs:4
       ~emit:(fun i _ -> if i = 5 then failwith "emit-boom")
       (fun x -> x)
       (Array.init 50 (fun i -> i))
   with
  | _ -> Alcotest.fail "expected the emit exception"
  | exception Failure s ->
    Alcotest.(check string) "emit exception reaches caller" "emit-boom" s);
  let r = Pool.parallel_map ~jobs:4 succ [| 1; 2; 3 |] in
  Alcotest.(check bool) "usable after emit failure" true (r = [| 2; 3; 4 |])

let test_nested () =
  (* Outer cells run on the batch's domains; each opens its own
     parallel_map, which runs serially in that domain, so this must
     neither deadlock nor lose results. *)
  let inner x = Pool.parallel_map ~jobs:4 (fun y -> x + y) (Array.init 50 (fun i -> i)) in
  let outer = Pool.parallel_map ~jobs:4 inner (Array.init 8 (fun i -> i * 100)) in
  let expect = Array.init 8 (fun i -> Array.init 50 (fun j -> (i * 100) + j)) in
  Alcotest.(check bool) "nested results" true (outer = expect)

(* A batch never runs more than [jobs] cells at once, also when an
   earlier batch asked for more domains. *)
let test_jobs_bound () =
  let peak_of jobs =
    let running = Atomic.make 0 and peak = Atomic.make 0 in
    let cell _ =
      let now = Atomic.fetch_and_add running 1 + 1 in
      let rec raise_peak () =
        let p = Atomic.get peak in
        if now > p && not (Atomic.compare_and_set peak p now) then raise_peak ()
      in
      raise_peak ();
      Unix.sleepf 0.002;
      Atomic.decr running
    in
    ignore (Pool.parallel_map ~jobs cell (Array.make 64 ()));
    Atomic.get peak
  in
  let peak4 = peak_of 4 in
  Alcotest.(check bool) "jobs=4 runs at most 4 cells at once" true (peak4 <= 4);
  let peak2 = peak_of 2 in
  Alcotest.(check bool)
    (Printf.sprintf "jobs=2 after jobs=4 peaks at %d <= 2" peak2)
    true (peak2 <= 2)

let test_default_jobs_env () =
  let saved = Sys.getenv_opt "VOLTRON_JOBS" in
  let restore () = Unix.putenv "VOLTRON_JOBS" (Option.value saved ~default:"") in
  Fun.protect ~finally:restore (fun () ->
      Unix.putenv "VOLTRON_JOBS" "5";
      Alcotest.(check int) "VOLTRON_JOBS honoured" 5 (Pool.default_jobs ());
      let host = Domain.recommended_domain_count () in
      Unix.putenv "VOLTRON_JOBS" "0";
      Alcotest.(check int) "non-positive falls back to host" host
        (Pool.default_jobs ());
      Unix.putenv "VOLTRON_JOBS" "many";
      Alcotest.(check int) "garbage falls back to host" host
        (Pool.default_jobs ()))

(* --- determinism at the user level --------------------------------------- *)

let test_differential_jobs_identical () =
  let p = Gen.program ~seed:3 ~size:14 () in
  let hir =
    Frontend.parse_string ~name:p.Voltron_lang.Ast.prog_name (Gen.render p)
  in
  let d1 = Run.differential ~cores:[ 2; 4 ] ~jobs:1 hir in
  let d4 = Run.differential ~cores:[ 2; 4 ] ~jobs:4 hir in
  Alcotest.(check bool) "differential record identical at -j 1 and -j 4" true
    (d1 = d4)

(* A whole campaign — derived seeds, transcript, findings, run counters —
   must be byte-identical between jobs=1 and jobs=4 (the issue's
   acceptance bar). Seed 1 is clean over the default matrix, so this also
   re-checks that parallel runs stay divergence-free. *)
let test_fuzz_jobs_identical () =
  let campaign jobs =
    let buf = Buffer.create 4096 in
    let r =
      Campaign.run ~jobs ~seed:1 ~count:8 ~size:12 ~minimize_findings:false
        ~log:(fun s -> Buffer.add_string buf (s ^ "\n"))
        ()
    in
    (Buffer.contents buf, r)
  in
  let log1, r1 = campaign 1 in
  let log4, r4 = campaign 4 in
  Alcotest.(check string) "transcripts byte-identical" log1 log4;
  Alcotest.(check int) "programs" r1.Campaign.r_programs r4.Campaign.r_programs;
  Alcotest.(check int) "simulations" r1.Campaign.r_runs r4.Campaign.r_runs;
  Alcotest.(check int) "warnings" r1.Campaign.r_warnings r4.Campaign.r_warnings;
  Alcotest.(check bool) "findings identical" true
    (r1.Campaign.r_findings = r4.Campaign.r_findings)

let () =
  Alcotest.run "pool"
    [
      ( "parallel_map",
        [
          Alcotest.test_case "order preserved" `Quick test_order_preserved;
          Alcotest.test_case "jobs=1 is the serial reference" `Quick
            test_serial_reference;
          Alcotest.test_case "empty and singleton" `Quick test_edge_sizes;
          Alcotest.test_case "emit in index order" `Quick test_emit_ordered;
          Alcotest.test_case "exception propagates" `Quick
            test_exception_propagates;
          Alcotest.test_case "emit exception propagates" `Quick
            test_emit_exception_propagates;
          Alcotest.test_case "nested maps" `Quick test_nested;
          Alcotest.test_case "jobs bounds running cells" `Quick test_jobs_bound;
          Alcotest.test_case "default_jobs env override" `Quick
            test_default_jobs_env;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "differential -j invariant" `Slow
            test_differential_jobs_identical;
          Alcotest.test_case "fuzz campaign -j invariant" `Slow
            test_fuzz_jobs_identical;
        ] );
    ]
