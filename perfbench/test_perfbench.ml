(* Tests of the benchmark's own arithmetic: the tail-percentile rule and
   its sample-count guard, span self-time subtraction, and the speedup
   geomean. *)

open Perfbench

let samples n = Array.init n (fun i -> float_of_int (n - i))

let check_tail n ~pct ~beyond =
  match Summary.tail (samples n) with
  | None -> Alcotest.failf "%d samples: no tail" n
  | Some t ->
    let what = Printf.sprintf "%d samples: %s" n in
    Alcotest.(check (float 0.)) (what "percentile") pct t.Summary.t_pct;
    Alcotest.(check int) (what "beyond") beyond t.Summary.t_beyond;
    Alcotest.(check int) (what "count") n t.Summary.t_samples;
    (* samples 1..n sit one per rank interval, so the estimate is the
       Beta mean q, scaled: q n + 1/2 *)
    Alcotest.(check (float 0.01)) (what "value")
      ((pct /. 100. *. float_of_int n) +. 0.5)
      t.Summary.t_value

let test_tail_rule () =
  check_tail 20 ~pct:50. ~beyond:10;
  check_tail 99 ~pct:75. ~beyond:24;
  check_tail 100 ~pct:90. ~beyond:10;
  check_tail 125 ~pct:90. ~beyond:12;
  check_tail 720 ~pct:95. ~beyond:36;
  check_tail 1000 ~pct:99. ~beyond:10;
  check_tail 10_000 ~pct:99.9 ~beyond:10

let test_tail_guard () =
  Alcotest.(check bool) "19 samples have no tail" true (Summary.tail (samples 19) = None);
  Alcotest.(check bool) "no samples have no tail" true (Summary.tail [||] = None)

let test_harrell_davis () =
  let hd = Summary.harrell_davis in
  Alcotest.(check (float 1e-9))
    "symmetric samples: the centre" 50.5
    (hd (Summary.sorted_copy (samples 100)) 0.5);
  Alcotest.(check (float 1e-9)) "equal samples: their value" 3. (hd (Array.make 7 3.) 0.9);
  (* between two clusters the estimate sits inside the gap and moves with
     q, where a nearest-rank median jumps from one cluster to the other *)
  let gap = Array.init 20 (fun i -> float_of_int (if i < 10 then i + 1 else i + 11)) in
  Alcotest.(check bool) "inside the gap" true (hd gap 0.5 > 9. && hd gap 0.5 < 20.);
  let lo = hd gap 0.4 and mid = hd gap 0.5 and hi = hd gap 0.6 in
  Alcotest.(check bool) "monotone in q" true (lo < mid && mid < hi)

let test_median () =
  Alcotest.(check (float 0.)) "odd" 2. (Summary.median [| 3.; 1.; 2. |]);
  Alcotest.(check (float 0.)) "even" 2.5 (Summary.median [| 4.; 1.; 2.; 3. |])

let span ?(parent = -1) name start stop =
  { Spans.name; op = 0; parent; start; stop }

let test_self_time () =
  (* op [0,10] has children [1,3] and [2,5] (overlapping: their union
     [1,5] counts once) and [8,12] (clipped to [8,10]); [1,3] has a child
     [1.5,2]. *)
  let spans =
    [|
      span "op" 0. 10.;
      span ~parent:0 "a" 1. 3.;
      span ~parent:0 "b" 2. 5.;
      span ~parent:0 "c" 8. 12.;
      span ~parent:1 "d" 1.5 2.;
    |]
  in
  let self = Spans.self_times spans in
  Alcotest.(check (array (float 1e-12))) "self times" [| 4.; 1.5; 3.; 4.; 0.5 |] self

let test_self_times_sum_to_root () =
  let t = Spans.create () in
  let busy () = ignore (Sys.opaque_identity (List.init 20_000 Fun.id)) in
  Spans.set_op t 0;
  Spans.with_span t "op" (fun () ->
      busy ();
      Spans.with_span t "a" (fun () -> busy (); Spans.with_span t "b" busy);
      Spans.with_span t "c" busy);
  let spans = Spans.spans t in
  Alcotest.(check int) "four spans" 4 (Array.length spans);
  Alcotest.(check (list int)) "parents" [ -1; 0; 1; 0 ]
    (Array.to_list (Array.map (fun s -> s.Spans.parent) spans));
  let total = Array.fold_left ( +. ) 0. (Spans.self_times spans) in
  Alcotest.(check (float 1e-9))
    "self times add up to the root" (Spans.duration spans.(0)) total

let test_span_closes_on_exception () =
  let t = Spans.create () in
  (try Spans.with_span t "op" (fun () -> failwith "boom") with Failure _ -> ());
  Spans.with_span t "next" ignore;
  let spans = Spans.spans t in
  Alcotest.(check bool) "closed" true (Float.is_finite spans.(0).Spans.stop);
  Alcotest.(check int) "next span is a root" (-1) spans.(1).Spans.parent

let test_geomean () =
  let geomean = Summary.speedup_geomean in
  Alcotest.(check (float 1e-12)) "4x and 1x" 2. (geomean [ (400, 100); (100, 100) ]);
  Alcotest.(check (float 1e-12)) "2x and 0.5x" 1. (geomean [ (200, 100); (50, 100) ])

let () =
  Alcotest.run "perfbench"
    [
      ( "summary",
        [
          Alcotest.test_case "tail percentile rule" `Quick test_tail_rule;
          Alcotest.test_case "tail sample-count guard" `Quick test_tail_guard;
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "Harrell-Davis quantile" `Quick test_harrell_davis;
          Alcotest.test_case "speedup geomean" `Quick test_geomean;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self-time subtraction" `Quick test_self_time;
          Alcotest.test_case "self times add up to the root span" `Quick
            test_self_times_sum_to_root;
          Alcotest.test_case "a raising call still closes its span" `Quick
            test_span_closes_on_exception;
        ] );
    ]
