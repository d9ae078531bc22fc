(* Shape tests for the evaluation itself: the paper's qualitative claims
   must hold on reduced-scale runs of the experiment harness, so a
   regression in kernels, compiler or machine that silently flips a
   figure's story fails the suite. These are the claims EXPERIMENTS.md
   reports; exact magnitudes are not asserted, directions and orderings
   are. *)

module E = Voltron.Experiments

let scale = 0.3

(* A representative slice keeps the suite fast: one LLP-heavy, one
   strand-heavy, one ILP-heavy and one mixed benchmark. *)
let llp_bench = "171.swim"
let tlp_bench = "179.art"
let ilp_bench = "rawcaudio"
let mixed_bench = "cjpeg"
let slice = [ llp_bench; tlp_bench; ilp_bench; mixed_bench ]

let find_by field rows name = List.find (fun r -> field r = name) rows

let test_fig10_11_winners () =
  List.iter
    (fun n_cores ->
      let rows =
        if n_cores = 2 then E.fig10 ~benches:slice (E.matrix ~scale ())
        else E.fig11 ~benches:slice (E.matrix ~scale ())
      in
      let row = find_by (fun (r : E.per_type_speedup) -> r.E.bench) rows in
      let swim = row llp_bench and art = row tlp_bench in
      Alcotest.(check bool)
        (Printf.sprintf "swim: LLP best at %d cores" n_cores)
        true
        (swim.E.sp_llp >= swim.E.sp_ilp && swim.E.sp_llp >= swim.E.sp_tlp *. 0.95);
      Alcotest.(check bool)
        (Printf.sprintf "art: TLP beats ILP at %d cores" n_cores)
        true (art.E.sp_tlp > art.E.sp_ilp);
      Alcotest.(check bool) "art: TLP beats LLP" true (art.E.sp_tlp > art.E.sp_llp))
    [ 2; 4 ]

let test_fig12_decoupled_stalls_lower () =
  let rows = E.fig12 ~benches:[ tlp_bench; mixed_bench ] (E.matrix ~scale ()) in
  List.iter
    (fun (r : E.stall_breakdown) ->
      Alcotest.(check bool)
        (r.E.sb_bench ^ ": decoupled D-stalls below half of coupled")
        true
        (r.E.decoupled_d < 0.5 *. r.E.coupled_d);
      Alcotest.(check bool)
        (r.E.sb_bench ^ ": decoupled shows receive stalls")
        true
        (r.E.decoupled_recv > 0.01))
    rows

let test_fig13_hybrid_dominates () =
  let hybrid = E.fig13 ~benches:slice (E.matrix ~scale ()) in
  let singles4 = E.fig11 ~benches:slice (E.matrix ~scale ()) in
  List.iter
    (fun (h : E.hybrid_speedup) ->
      let s =
        List.find (fun (r : E.per_type_speedup) -> r.E.bench = h.E.hs_bench) singles4
      in
      let best = max s.E.sp_ilp (max s.E.sp_tlp s.E.sp_llp) in
      (* Allow 5% noise: hybrid may pay a region-boundary switch the
         forced build avoids. *)
      Alcotest.(check bool)
        (Printf.sprintf "%s: hybrid %.2f >= best single %.2f" h.E.hs_bench
           h.E.hs_4core best)
        true
        (h.E.hs_4core >= 0.95 *. best);
      Alcotest.(check bool) "4 cores >= 2 cores" true
        (h.E.hs_4core >= 0.95 *. h.E.hs_2core))
    hybrid

let test_fig14_modes_mixed () =
  let rows = E.fig14 ~benches:[ ilp_bench; tlp_bench ] (E.matrix ~scale ()) in
  let row = find_by (fun (r : E.mode_split) -> r.E.ms_bench) rows in
  (* The ILP-heavy benchmark spends real time coupled; the strand-heavy
     one lives almost entirely decoupled (epic-style, paper §5.2). *)
  Alcotest.(check bool) "ilp bench uses coupled mode" true
    ((row ilp_bench).E.coupled_pct > 10.);
  Alcotest.(check bool) "tlp bench mostly decoupled" true
    ((row tlp_bench).E.decoupled_pct > 80.)

let test_micro_directions () =
  let rows = E.micro (E.matrix ~scale:0.5 ()) in
  List.iter
    (fun (m : E.micro_result) ->
      Alcotest.(check bool)
        (m.E.mi_name ^ " speeds up")
        true (m.E.mi_measured > 0.95))
    rows;
  (* The DOALL example is the strongest, as in the paper. *)
  match rows with
  | doall :: _ ->
    Alcotest.(check bool) "fig7 strongest" true
      (List.for_all (fun (m : E.micro_result) -> doall.E.mi_measured >= m.E.mi_measured) rows)
  | [] -> Alcotest.fail "no micro rows"

(* Figs. 10-14 read from one shared matrix (on the pool) do the distinct
   work once per benchmark: one build, profile, region analysis and
   baseline, and ILP, TLP, LLP and hybrid at 2 and 4 cores. Their rows are
   the rows of fresh serial calls, which rebuild everything. *)
let test_matrix_shares_cells () =
  let pair = [ tlp_bench; ilp_bench ] in
  let m = E.matrix ~scale () in
  let jobs = 2 in
  let f10 = E.fig10 ~benches:pair ~jobs m in
  let f11 = E.fig11 ~benches:pair ~jobs m in
  let f12 = E.fig12 ~benches:pair ~jobs m in
  let f13 = E.fig13 ~benches:pair ~jobs m in
  let f14 = E.fig14 ~benches:pair ~jobs m in
  List.iter
    (fun name ->
      let w = E.work m name in
      let check what expected got = Alcotest.(check int) (name ^ ": " ^ what) expected got in
      check "builds" 1 w.E.builds;
      check "profiles" 1 w.E.profiles;
      check "region analyses" 1 w.E.analyses;
      check "baselines" 1 w.E.baselines;
      check "simulations" 8 w.E.simulations)
    pair;
  Alcotest.(check int) "untouched benchmark built nothing" 0
    (E.work m mixed_bench).E.builds;
  Alcotest.(check bool) "fig10 rows" true (f10 = E.fig10 ~benches:pair (E.matrix ~scale ()));
  Alcotest.(check bool) "fig11 rows" true (f11 = E.fig11 ~benches:pair (E.matrix ~scale ()));
  Alcotest.(check bool) "fig12 rows" true (f12 = E.fig12 ~benches:pair (E.matrix ~scale ()));
  Alcotest.(check bool) "fig13 rows" true (f13 = E.fig13 ~benches:pair (E.matrix ~scale ()));
  Alcotest.(check bool) "fig14 rows" true (f14 = E.fig14 ~benches:pair (E.matrix ~scale ()));
  Alcotest.check_raises "a benchmark named twice"
    (Invalid_argument "Experiments.per_subject: a subject is named twice") (fun () ->
      ignore (E.fig14 ~benches:[ ilp_bench; ilp_bench ] m))

let test_ablation_directions () =
  (* A3: decoupled tolerance grows with memory latency, coupled shrinks. *)
  let rows = E.ablation_memlat (E.matrix ~scale ()) in
  let value row name = List.assoc name row.E.ab_values in
  (match rows with
  | [ lat50; _; lat200 ] ->
    Alcotest.(check bool) "decoupled grows" true
      (value lat200 "decoupled TLP" > value lat50 "decoupled TLP" *. 0.98);
    Alcotest.(check bool) "coupled shrinks" true
      (value lat200 "coupled ILP" < value lat50 "coupled ILP" +. 0.02)
  | _ -> Alcotest.fail "three latency rows expected");
  (* A4: a conflict costs real speedup but the clean run is fast. *)
  (match E.ablation_tm (E.matrix ~scale ()) with
  | clean :: conflicted :: _ ->
    Alcotest.(check bool) "clean speculation fast" true (value clean "speedup" > 1.5);
    Alcotest.(check bool) "conflict costs" true
      (value conflicted "speedup" < value clean "speedup");
    Alcotest.(check bool) "conflict observed" true (value conflicted "conflicts" >= 1.)
  | _ -> Alcotest.fail "tm rows expected");
  (* A6: if-conversion removes predicate stalls and does not slow down. *)
  match E.ablation_ifconv (E.matrix ~scale ()) with
  | [ branchy; converted ] ->
    Alcotest.(check bool) "pred stalls gone" true
      (value converted "pred-stall cycles/core" < 1.);
    Alcotest.(check bool) "no slowdown" true
      (value converted "TLP speedup" >= value branchy "TLP speedup" *. 0.98)
  | _ -> Alcotest.fail "two ifconv rows expected"

let () =
  Alcotest.run "experiments"
    [
      ( "figures",
        [
          Alcotest.test_case "fig10/11 winners" `Slow test_fig10_11_winners;
          Alcotest.test_case "fig12 stall shape" `Slow test_fig12_decoupled_stalls_lower;
          Alcotest.test_case "fig13 hybrid dominates" `Slow test_fig13_hybrid_dominates;
          Alcotest.test_case "fig14 mode residency" `Slow test_fig14_modes_mixed;
          Alcotest.test_case "micro directions" `Slow test_micro_directions;
        ] );
      ( "matrix",
        [ Alcotest.test_case "figs 10-14 share cells" `Slow test_matrix_shares_cells ] );
      ( "ablations",
        [ Alcotest.test_case "directions" `Slow test_ablation_directions ] );
    ]
