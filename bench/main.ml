(* The benchmark harness: regenerates every figure of the paper's
   evaluation (§5.2) as printed series, plus Bechamel micro-benchmarks of
   the toolchain itself (one Test.make per figure pipeline).

     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- fig10 fig13  # only these figures
     dune exec bench/main.exe -- quick        # all figures, reduced scale
     dune exec bench/main.exe -- ablations    # ablations only
     dune exec bench/main.exe -- bechamel     # toolchain timing only
     dune exec bench/main.exe -- json --scale 0.2  # write BENCH.json

   Shape targets (paper): 2-core averages ILP 1.23 / TLP 1.16 / LLP 1.18,
   hybrid 1.46; 4-core 1.33 / 1.23 / 1.37, hybrid 1.83; decoupled mode
   well below coupled mode on cache-miss stalls (Fig. 12); hybrid at least
   the best single strategy per benchmark (Fig. 13). Measured numbers are
   recorded in EXPERIMENTS.md. *)

module E = Voltron.Experiments
module Suite = Voltron_workloads.Suite
module Pool = Voltron_pool.Pool
module Campaign = Voltron_gen.Campaign
module Json = Voltron_obs.Json
module Metrics = Voltron_obs.Metrics
module Blame = Voltron_obs.Blame
module Critpath = Voltron_obs.Critpath
module Config = Voltron_machine.Config
module Coherence = Voltron_mem.Coherence
module Machine = Voltron_machine.Machine
module Driver = Voltron_compiler.Driver

let line () = print_endline (String.make 78 '=')

(* Every figure, ablation and counter of one invocation reads the same
   matrix [m], so a cell two of them share is simulated once. A figure's
   rows are computed once, then printed or exported to BENCH.json. *)
let figure ~jobs m name =
  let objs rows f = Json.List (List.map (fun r -> Json.Obj (f r)) rows) in
  let per_type rows =
    ( rows,
      objs rows (fun (r : E.per_type_speedup) ->
          [
            ("bench", Json.Str r.E.bench);
            ("ilp", Json.Float r.E.sp_ilp);
            ("tlp", Json.Float r.E.sp_tlp);
            ("llp", Json.Float r.E.sp_llp);
          ]) )
  in
  match name with
  | "fig3" ->
    let rows = E.fig3 ~jobs m in
    ( (fun () -> E.print_fig3 rows),
      objs rows (fun (c : E.classification) ->
          [
            ("bench", Json.Str c.E.cl_bench);
            ("ilp_pct", Json.Float c.E.pct_ilp);
            ("tlp_pct", Json.Float c.E.pct_tlp);
            ("llp_pct", Json.Float c.E.pct_llp);
            ("single_pct", Json.Float c.E.pct_single);
          ]) )
  | "fig10" ->
    let rows, json = per_type (E.fig10 ~jobs m) in
    ((fun () -> E.print_fig10 rows), json)
  | "fig11" ->
    let rows, json = per_type (E.fig11 ~jobs m) in
    ((fun () -> E.print_fig11 rows), json)
  | "fig12" ->
    let rows = E.fig12 ~jobs m in
    ( (fun () -> E.print_fig12 rows),
      objs rows (fun (s : E.stall_breakdown) ->
          [
            ("bench", Json.Str s.E.sb_bench);
            ("coupled_i", Json.Float s.E.coupled_i);
            ("coupled_d", Json.Float s.E.coupled_d);
            ("coupled_other", Json.Float s.E.coupled_other);
            ("decoupled_i", Json.Float s.E.decoupled_i);
            ("decoupled_d", Json.Float s.E.decoupled_d);
            ("decoupled_recv", Json.Float s.E.decoupled_recv);
            ("decoupled_pred", Json.Float s.E.decoupled_pred);
            ("decoupled_sync", Json.Float s.E.decoupled_sync);
          ]) )
  | "fig13" ->
    let rows = E.fig13 ~jobs m in
    ( (fun () -> E.print_fig13 rows),
      objs rows (fun (h : E.hybrid_speedup) ->
          [
            ("bench", Json.Str h.E.hs_bench);
            ("cores2", Json.Float h.E.hs_2core);
            ("cores4", Json.Float h.E.hs_4core);
          ]) )
  | "fig14" ->
    let rows = E.fig14 ~jobs m in
    ( (fun () -> E.print_fig14 rows),
      objs rows (fun (r : E.mode_split) ->
          [
            ("bench", Json.Str r.E.ms_bench);
            ("coupled_pct", Json.Float r.E.coupled_pct);
            ("decoupled_pct", Json.Float r.E.decoupled_pct);
          ]) )
  | "micro" ->
    let rows = E.micro ~jobs m in
    ( (fun () -> E.print_micro rows),
      objs rows (fun (r : E.micro_result) ->
          [
            ("name", Json.Str r.E.mi_name);
            ("paper", Json.Float r.E.mi_paper);
            ("measured", Json.Float r.E.mi_measured);
          ]) )
  | "scaling" ->
    let rows = E.scaling ~jobs m in
    let cross = E.crossover rows in
    ( (fun () ->
        E.print_scaling rows;
        print_newline ();
        E.print_crossover cross),
      Json.Obj
        [
          ( "rows",
            objs rows (fun (r : E.scaling_row) ->
                [
                  ("bench", Json.Str r.E.sc_bench);
                  ("class", Json.Str r.E.sc_class);
                  ("cores", Json.Int r.E.sc_cores);
                  ("snoop_cycles", Json.Int r.E.sc_snoop_cycles);
                  ("directory_cycles", Json.Int r.E.sc_dir_cycles);
                  ("snoop_speedup", Json.Float r.E.sc_snoop);
                  ("directory_speedup", Json.Float r.E.sc_directory);
                ]) );
          ( "crossover",
            objs cross (fun (c : E.crossover_row) ->
                [
                  ("class", Json.Str c.E.cx_class);
                  ("cores", Json.Int c.E.cx_cores);
                  ("snoop", Json.Float c.E.cx_snoop);
                  ("directory", Json.Float c.E.cx_directory);
                  ("winner", Json.Str c.E.cx_winner);
                ]) );
        ] )
  | "resilience" ->
    let rows = E.resilience ~jobs m in
    ( (fun () -> E.print_resilience rows),
      objs rows (fun (r : E.resilience_row) ->
          [
            ("bench", Json.Str r.E.rs_bench);
            ("rate", Json.Float r.E.rs_rate);
            ("level", Json.Str r.E.rs_level);
            ("cycles", Json.Int r.E.rs_cycles);
            ("overhead", Json.Float r.E.rs_overhead);
            ("speedup", Json.Float r.E.rs_speedup);
            ("faults", Json.Int r.E.rs_faults);
            ("retries", Json.Int r.E.rs_retries);
            ("ecc", Json.Int r.E.rs_ecc);
            ("aborts", Json.Int r.E.rs_aborts);
            ("verified", Json.Bool r.E.rs_verified);
          ]) )
  | other ->
    Printf.eprintf "unknown figure: %s\n" other;
    exit 2

let run_ablations m =
  line ();
  print_endline "Ablations (design-choice studies beyond the paper's figures)";
  List.iter
    (fun (title, rows) ->
      E.print_ablations ~title (rows m);
      print_newline ())
    E.ablations

let figures =
  [
    "fig3"; "fig10"; "fig11"; "fig12"; "fig13"; "fig14"; "micro"; "scaling";
    "resilience";
  ]

(* --- JSON export (BENCH.json) ---------------------------------------------- *)

(* Key counters per benchmark: its 4-core hybrid cell, with the unified
   metrics record alongside its speedup, in benchmark order. *)
let json_of_counters ~jobs matrix =
  List.map
    (fun (name, base, m) ->
      let metrics =
        Metrics.of_stats ~label:name ~cycles:m.Voltron.Run.cycles
          ~coherence:m.Voltron.Run.coh_stats ~network:m.Voltron.Run.net_stats
          m.Voltron.Run.stats
      in
      ( name,
        Json.Obj
          [
            ("baseline_cycles", Json.Int base);
            ("cycles", Json.Int m.Voltron.Run.cycles);
            ( "speedup",
              Json.Float (float_of_int base /. float_of_int m.Voltron.Run.cycles)
            );
            ("verified", Json.Bool m.Voltron.Run.verified);
            ("metrics", Metrics.to_json metrics);
          ] ))
    (E.counters ~jobs matrix)

let run_json ~scale ~jobs m wanted =
  let wanted = if wanted = [] then figures else wanted in
  let path = "BENCH.json" in
  Printf.printf "collecting %s (scale %.2f, jobs %d) ...\n%!"
    (String.concat " " wanted) scale jobs;
  let figs = List.map (fun f -> (f, snd (figure ~jobs m f))) wanted in
  let counters = json_of_counters ~jobs m in
  Json.write_file path
    (Json.Obj
       [
         ("scale", Json.Float scale);
         ("figures", Json.Obj figs);
         ("benchmarks", Json.Obj counters);
       ]);
  Printf.printf "wrote %s\n" path

(* --- perf: simulator wall-clock throughput (PERF.json) --------------------- *)

(* Measures the cycle simulator itself — simulated cycles per host second
   over the hybrid workload sweep, at 4 cores on the snoop bus and at 16
   cores on the directory (where operand-network queues run deepest and
   coherence traffic grows). Compilation happens outside the timed section,
   so the numbers track the Machine.run hot loop and nothing else. Each
   invocation appends its entries to PERF.json's series, so the speedup
   history is a recorded artifact rather than a claim; each sweep is gated
   against its own floor in bench/perf_baseline.json (see DESIGN.md §10).
   Each workload's run is timed [perf_repeats] times on fresh machines and
   its median recorded: one timing spreads too widely on a shared host to
   show a 10-50% change. *)

type perf_row = { pw_bench : string; pw_cycles : int; pw_host_s : float }

let perf_repeats = 5

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

let host_cores () = Domain.recommended_domain_count ()

let read_json_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  match Json.parse s with
  | Ok v -> Some v
  | Error e ->
    Printf.eprintf "warning: %s does not parse as JSON (%s); ignoring it\n" path e;
    None

(* The host-parallel leg of perf mode: the same 4-core hybrid sweep, but
   one compile+run cell per benchmark fanned out on the domain pool.
   Unlike the serial leg this times compilation too (it happens inside
   the cell), so its cycles_per_sec is not comparable to the serial
   entry — the interesting trend is this entry against its own
   history and against the jobs=1 run of the same cell shape. *)
let run_parallel_sweep ~scale ~machine ~jobs () =
  let cell (b : Suite.benchmark) =
    let p = b.Suite.build ~scale () in
    let compiled = Driver.compile ~machine ~choice:`Hybrid ~check:false p in
    let m = Machine.create machine compiled.Driver.executable in
    let r = Machine.run m in
    (match r.Machine.outcome with
    | Machine.Finished -> ()
    | Machine.Out_of_cycles | Machine.Deadlock _ | Machine.Fault_limit _
    | Machine.Stopped _ ->
      failwith (b.Suite.bench_name ^ " did not finish"));
    r.Machine.cycles
  in
  let benches = Array.of_list Suite.all in
  let t0 = Unix.gettimeofday () in
  let cycles = Pool.parallel_map ~jobs cell benches in
  let host = Unix.gettimeofday () -. t0 in
  let total = Array.fold_left ( + ) 0 cycles in
  Printf.printf
    "  parallel sweep (-j %d): %10d cycles %8.3fs %12.0f cyc/s (compile included)\n%!"
    jobs total host
    (float_of_int total /. host);
  Json.Obj
    [
      ("mode", Json.Str "sweep-parallel");
      ("scale", Json.Float scale);
      ("n_cores", Json.Int 4);
      ("jobs", Json.Int jobs);
      ("host_cores", Json.Int (host_cores ()));
      ("includes_compile", Json.Bool true);
      ("total_cycles", Json.Int total);
      ("total_host_s", Json.Float host);
      ("cycles_per_sec", Json.Float (float_of_int total /. host));
    ]

(* Fuzz-campaign throughput, jobs=1 vs -j N over the same cell set: the
   ratio is the pool's real-world win (the acceptance metric from
   DESIGN.md 15 — about linear up to the physical core count). *)
let run_fuzz_throughput ~jobs () =
  let count = 32 and seed = 7 in
  let time j =
    let t0 = Unix.gettimeofday () in
    let r =
      Campaign.run ~jobs:j ~minimize_findings:false
        ~log:(fun _ -> ())
        ~seed ~count ()
    in
    (Unix.gettimeofday () -. t0, r.Campaign.r_runs)
  in
  let serial_s, runs = time 1 in
  let par_s, _ = time jobs in
  let speedup = serial_s /. par_s in
  Printf.printf
    "  fuzz throughput: %d programs (%d sims) %8.3fs at -j 1, %8.3fs at -j %d \
     (%.2fx)\n%!"
    count runs serial_s par_s jobs speedup;
  Json.Obj
    [
      ("mode", Json.Str "fuzz");
      ("jobs", Json.Int jobs);
      ("host_cores", Json.Int (host_cores ()));
      ("programs", Json.Int count);
      ("simulations", Json.Int runs);
      ("serial_host_s", Json.Float serial_s);
      ("parallel_host_s", Json.Float par_s);
      ("programs_per_sec", Json.Float (float_of_int count /. par_s));
      ("speedup_vs_serial", Json.Float speedup);
    ]

(* The sweeps perf mode times serially and gates, as (cores, coherence). *)
let perf_sweeps = [ (4, Coherence.Snoop); (16, Coherence.Directory) ]

let run_serial_sweep ~scale ~machine () =
  let n_cores = machine.Config.n_cores in
  let protocol = Coherence.protocol_name machine.Config.cache.Coherence.protocol in
  Printf.printf
    "perf: %d-core hybrid sweep (%s) over %d workloads (scale %.2f, fast_forward \
     %b, median of %d runs)\n%!"
    n_cores protocol (List.length Suite.all) scale machine.Config.fast_forward
    perf_repeats;
  let rows =
    List.map
      (fun (b : Suite.benchmark) ->
        let p = b.Suite.build ~scale () in
        let compiled = Driver.compile ~machine ~choice:`Hybrid ~check:false p in
        let time_run () =
          let m = Machine.create machine compiled.Driver.executable in
          let t0 = Unix.gettimeofday () in
          let r = Machine.run m in
          let host = Unix.gettimeofday () -. t0 in
          (match r.Machine.outcome with
          | Machine.Finished -> ()
          | Machine.Out_of_cycles | Machine.Deadlock _ | Machine.Fault_limit _
          | Machine.Stopped _ ->
            Printf.eprintf "perf: %s did not finish\n" b.Suite.bench_name;
            exit 1);
          (r.Machine.cycles, host)
        in
        let runs = List.init perf_repeats (fun _ -> time_run ()) in
        let cycles = fst (List.hd runs) in
        if List.exists (fun (c, _) -> c <> cycles) runs then begin
          Printf.eprintf "perf: %s cycle counts differ between repeats: %s\n"
            b.Suite.bench_name
            (String.concat " " (List.map (fun (c, _) -> string_of_int c) runs));
          exit 1
        end;
        let row =
          {
            pw_bench = b.Suite.bench_name;
            pw_cycles = cycles;
            pw_host_s = median (List.map snd runs);
          }
        in
        Printf.printf "  %-16s %10d cycles %8.3fs %12.0f cyc/s\n%!" row.pw_bench
          row.pw_cycles row.pw_host_s
          (float_of_int row.pw_cycles /. row.pw_host_s);
        row)
      Suite.all
  in
  let total_cycles = List.fold_left (fun a r -> a + r.pw_cycles) 0 rows in
  let total_host = List.fold_left (fun a r -> a +. r.pw_host_s) 0. rows in
  let cps = float_of_int total_cycles /. total_host in
  Printf.printf "  %-16s %10d cycles %8.3fs %12.0f cyc/s\n" "TOTAL" total_cycles
    total_host cps;
  let entry =
    Json.Obj
      [
        ("mode", Json.Str "sweep");
        ("scale", Json.Float scale);
        ("n_cores", Json.Int n_cores);
        ("coherence", Json.Str protocol);
        ("jobs", Json.Int 1);
        ("host_cores", Json.Int (host_cores ()));
        ("fast_forward", Json.Bool machine.Config.fast_forward);
        ("repeats", Json.Int perf_repeats);
        ("total_cycles", Json.Int total_cycles);
        ("total_host_s", Json.Float total_host);
        ("cycles_per_sec", Json.Float cps);
        ( "workloads",
          Json.List
            (List.map
               (fun r ->
                 Json.Obj
                   [
                     ("bench", Json.Str r.pw_bench);
                     ("cycles", Json.Int r.pw_cycles);
                     ("host_s", Json.Float r.pw_host_s);
                     ( "cycles_per_sec",
                       Json.Float (float_of_int r.pw_cycles /. r.pw_host_s) );
                   ])
               rows) );
      ]
  in
  (entry, cps)

(* The baseline's floor for one sweep: the [floors] element with matching
   [n_cores] and [coherence]. *)
let find_floor v ~n_cores ~protocol =
  let matches f =
    Option.bind (Json.member "n_cores" f) Json.to_int_opt = Some n_cores
    && Option.bind (Json.member "coherence" f) Json.to_string_opt
       = Some (Coherence.protocol_name protocol)
  in
  Option.bind (Json.member "floors" v) Json.to_list_opt
  |> Option.map (List.filter matches)
  |> function
  | Some [ f ] -> Option.bind (Json.member "cycles_per_sec" f) Json.to_float_opt
  | Some _ | None -> None

(* Fails when a sweep's cycles/s drops more than 30% below its floor. *)
let check_floors path measured =
  let v =
    match read_json_file path with
    | Some v -> v
    | None ->
      Printf.eprintf "perf: cannot read baseline %s\n" path;
      exit 1
  in
  let failed =
    List.filter
      (fun ((n_cores, protocol), cps) ->
        let label = Printf.sprintf "%d-core %s" n_cores (Coherence.protocol_name protocol) in
        match find_floor v ~n_cores ~protocol with
        | None ->
          Printf.eprintf "perf: baseline %s has no %s floor\n" path label;
          true
        | Some base ->
          let floor = 0.7 *. base in
          Printf.printf "baseline %s, %s: %.0f cyc/s (floor %.0f, measured %.0f)\n"
            path label base floor cps;
          if cps < floor then
            Printf.eprintf
              "perf: %s throughput regression — %.0f cyc/s is more than 30%% \
               below the %.0f cyc/s baseline\n"
              label cps base;
          cps < floor)
      measured
  in
  if failed <> [] then exit 1

let run_perf ~scale ~baseline ~jobs () =
  let serial =
    List.map
      (fun (n_cores, protocol) ->
        let machine = Config.with_coherence protocol (Config.default ~n_cores) in
        ((n_cores, protocol), run_serial_sweep ~scale ~machine ()))
      perf_sweeps
  in
  let par_entry =
    run_parallel_sweep ~scale ~machine:(Config.default ~n_cores:4) ~jobs ()
  in
  let fuzz_entry = run_fuzz_throughput ~jobs () in
  let entries = List.map (fun (_, (e, _)) -> e) serial @ [ par_entry; fuzz_entry ] in
  let prior =
    if Sys.file_exists "PERF.json" then
      match read_json_file "PERF.json" with
      | Some v ->
        Option.value ~default:[]
          (Option.bind (Json.member "series" v) Json.to_list_opt)
      | None -> []
    else []
  in
  Json.write_file "PERF.json" (Json.Obj [ ("series", Json.List (prior @ entries)) ]);
  Printf.printf "wrote PERF.json (%d series entries)\n"
    (List.length prior + List.length entries);
  Option.iter
    (fun path -> check_floors path (List.map (fun (k, (_, cps)) -> (k, cps)) serial))
    baseline

(* --- Bechamel: wall-clock cost of each figure's pipeline ------------------- *)

(* parallel_map overhead on no-op cells: what the pool itself costs —
   helper-domain spawn and join, cursor claims and frontier bookkeeping
   with zero useful work per cell. The jobs=1 entry is the serial-path
   floor. *)
let pool_input = Array.init 256 Fun.id

let bechamel_tests =
  let open Bechamel in
  let slice = [ "cjpeg" ] in
  let pool_group =
    Test.make_grouped ~name:"pool"
      [
        Test.make ~name:"noop-j1"
          (Staged.stage (fun () -> Pool.parallel_map ~jobs:1 Fun.id pool_input));
        Test.make ~name:"noop-j4"
          (Staged.stage (fun () -> Pool.parallel_map ~jobs:4 Fun.id pool_input));
      ]
  in
  let figures_group =
    (* Each run builds a fresh matrix, so every figure is timed from scratch. *)
    let fig name f =
      Test.make ~name (Staged.stage (fun () -> f (E.matrix ~scale:0.2 ())))
    in
    Test.make_grouped ~name:"figures"
    [
      fig "fig3" (E.fig3 ~benches:slice);
      fig "fig10" (E.fig10 ~benches:slice);
      fig "fig11" (E.fig11 ~benches:slice);
      fig "fig12" (E.fig12 ~benches:slice);
      fig "fig13" (E.fig13 ~benches:slice);
      fig "fig14" (E.fig14 ~benches:slice);
      fig "micro" E.micro;
      (* The causal-profiler pipeline end to end: hooks attached, run,
         critical-path walk and blame report. Compared against fig13 (same
         workload, hooks detached) this isolates the recording+walk cost. *)
      Test.make ~name:"blame"
        (Staged.stage (fun () ->
             let machine = Config.default ~n_cores:4 in
             let b = List.find (fun b -> b.Suite.bench_name = "cjpeg") Suite.all in
             let p = b.Suite.build ~scale:0.2 () in
             let compiled = Driver.compile ~machine ~choice:`Hybrid ~check:false p in
             let m = Machine.create machine compiled.Driver.executable in
             let blame = Blame.attach m compiled in
             let _ = Machine.run m in
             Critpath.report ~bench:"cjpeg" ~strategy:"hybrid"
               (Critpath.compute blame)));
    ]
  in
  Test.make_grouped ~name:"bench" [ figures_group; pool_group ]

let run_bechamel () =
  let open Bechamel in
  let open Toolkit in
  line ();
  print_endline
    "Bechamel: time per figure pipeline (compile + simulate, cjpeg slice at scale 0.2)";
  let instances = [ Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg instances bechamel_tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> rows := (name, est /. 1e6) :: !rows
      | Some _ | None -> ())
    results;
  List.iter
    (fun (name, ms) -> Printf.printf "  %-24s %10.3f ms/run\n" name ms)
    (List.sort compare !rows);
  print_newline ()

let modes = [ "quick"; "bechamel"; "ablations"; "json"; "perf" ]

(* Strict argument parsing: an unknown figure or mode name is an error, not
   a silent no-op (a typo like "fig12 " used to run the whole suite). *)
let parse_args args =
  let rec go scale baseline jobs acc = function
    | [] -> (scale, baseline, jobs, List.rev acc)
    | "--scale" :: v :: rest -> (
      match float_of_string_opt v with
      | Some f when f > 0. -> go (Some f) baseline jobs acc rest
      | Some _ | None ->
        Printf.eprintf "bad --scale value: %s\n" v;
        exit 2)
    | [ "--scale" ] ->
      Printf.eprintf "--scale needs a value\n";
      exit 2
    | "--baseline" :: path :: rest -> go scale (Some path) jobs acc rest
    | [ "--baseline" ] ->
      Printf.eprintf "--baseline needs a path\n";
      exit 2
    | ("-j" | "--jobs") :: v :: rest -> (
      match int_of_string_opt v with
      | Some j when j >= 1 -> go scale baseline (Some j) acc rest
      | Some _ | None ->
        Printf.eprintf "bad --jobs value: %s\n" v;
        exit 2)
    | [ ("-j" | "--jobs") ] ->
      Printf.eprintf "--jobs needs a value\n";
      exit 2
    | a :: rest when List.mem a figures || List.mem a modes ->
      go scale baseline jobs (a :: acc) rest
    | a :: _ ->
      Printf.eprintf
        "unknown argument: %s\n  figures: %s\n  modes: %s\n  options: --scale F \
         --baseline PERF_ENTRY.json -j/--jobs N\n"
        a (String.concat " " figures) (String.concat " " modes);
      exit 2
  in
  go None None None [] args

let () =
  let raw = List.tl (Array.to_list Sys.argv) in
  let scale_override, baseline, jobs_override, args = parse_args raw in
  let default_scale = if List.mem "quick" args then 0.25 else 1.0 in
  let scale = Option.value scale_override ~default:default_scale in
  (* -j N, else VOLTRON_JOBS, else every recommended domain. jobs=1 is
     the bit-identical serial reference, like the simulator CLI. *)
  let jobs = match jobs_override with Some j -> j | None -> Pool.default_jobs () in
  let wanted = List.filter (fun a -> List.mem a figures) args in
  let m = E.matrix ~scale () in
  let t0 = Unix.gettimeofday () in
  if List.mem "perf" args then run_perf ~scale ~baseline ~jobs ()
  else if List.mem "json" args then run_json ~scale ~jobs m wanted
  else begin
    (* Only what is named runs; with nothing named, every figure, then the
       ablations and Bechamel. *)
    let everything =
      wanted = [] && not (List.exists (fun a -> List.mem a [ "quick"; "ablations"; "bechamel" ]) args)
    in
    let mode name = everything || List.mem name args in
    if everything || wanted <> [] || List.mem "quick" args then begin
      Printf.printf
        "Voltron evaluation harness — reproducing the paper's figures (scale %.2f)\n"
        scale;
      List.iter
        (fun name ->
          line ();
          fst (figure ~jobs m name) ();
          print_newline ())
        (if wanted = [] then figures else wanted)
    end;
    if mode "ablations" then run_ablations m;
    if mode "bechamel" then run_bechamel ()
  end;
  line ();
  Printf.printf "total harness time: %.1fs\n" (Unix.gettimeofday () -. t0)
