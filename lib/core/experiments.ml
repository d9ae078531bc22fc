module Suite = Voltron_workloads.Suite
module Stats = Voltron_machine.Stats
module Config = Voltron_machine.Config
module Coherence = Voltron_mem.Coherence
module Energy = Voltron_machine.Energy
module Hir = Voltron_ir.Hir
module Profile = Voltron_analysis.Profile
module Regions = Voltron_compiler.Regions
module Driver = Voltron_compiler.Driver
module Table = Voltron_util.Table
module Stat = Voltron_util.Stat

type per_type_speedup = {
  bench : string;
  sp_ilp : float;
  sp_tlp : float;
  sp_llp : float;
}

type stall_breakdown = {
  sb_bench : string;
  coupled_i : float;
  coupled_d : float;
  coupled_other : float;
  decoupled_i : float;
  decoupled_d : float;
  decoupled_recv : float;
  decoupled_pred : float;
  decoupled_sync : float;
}

type hybrid_speedup = { hs_bench : string; hs_2core : float; hs_4core : float }

type mode_split = { ms_bench : string; coupled_pct : float; decoupled_pct : float }

type classification = {
  cl_bench : string;
  pct_ilp : float;
  pct_tlp : float;
  pct_llp : float;
  pct_single : float;
}

type micro_result = {
  mi_name : string;
  mi_paper : float;
  mi_measured : float;
}

type scaling_row = {
  sc_bench : string;
  sc_class : string;
  sc_cores : int;
  sc_snoop_cycles : int;
  sc_dir_cycles : int;
  sc_snoop : float;
  sc_directory : float;
}

type crossover_row = {
  cx_class : string;
  cx_cores : int;
  cx_snoop : float;
  cx_directory : float;
  cx_winner : string;
}

type resilience_row = {
  rs_bench : string;
  rs_rate : float;
  rs_level : string;
  rs_cycles : int;
  rs_overhead : float;
  rs_speedup : float;
  rs_faults : int;
  rs_retries : int;
  rs_ecc : int;
  rs_aborts : int;
  rs_verified : bool;
}

type ablation_row = { ab_label : string; ab_values : (string * float) list }

(* --- The experiment matrix --------------------------------------------------- *)

type knob =
  | Stock
  | Coherence of Coherence.protocol
  | Net_capacity of int
  | Mem_lat of int
  | Issue_width of int

let configure knob (c : Config.t) =
  match knob with
  | Stock -> c
  | Coherence proto -> Config.with_coherence proto c
  | Net_capacity n -> { c with Config.net_capacity = n }
  | Mem_lat lat ->
    { c with Config.cache = { c.Config.cache with Coherence.lat_mem = lat } }
  | Issue_width w -> { c with Config.issue_width = w }

type work = {
  mutable builds : int;
  mutable profiles : int;
  mutable analyses : int;
  mutable baselines : int;
  mutable simulations : int;
}

type subject = {
  name : string;
  program : Hir.program Lazy.t;
  profile : Profile.t Lazy.t;
  regions : Regions.t Lazy.t;
  cells : (Voltron_compiler.Select.choice * int * knob, Run.measurement) Hashtbl.t;
  work : work;
}

let subject ?profile name build =
  let w = { builds = 0; profiles = 0; analyses = 0; baselines = 0; simulations = 0 } in
  let program = lazy (w.builds <- w.builds + 1; build ()) in
  let profile =
    match profile with
    | Some pr -> Lazy.from_val pr
    | None -> lazy (w.profiles <- w.profiles + 1; Profile.collect (Lazy.force program))
  in
  let regions =
    lazy (w.analyses <- w.analyses + 1; Regions.of_program (Lazy.force program))
  in
  { name; program; profile; regions; cells = Hashtbl.create 16; work = w }

let measure s choice cores knob =
  let key = (choice, cores, knob) in
  match Hashtbl.find_opt s.cells key with
  | Some m -> m
  | None ->
    let machine = configure knob (Config.default ~n_cores:cores) in
    let compiled =
      Driver.compile ~machine ~choice ~profile:(Lazy.force s.profile)
        ~regions:(Lazy.force s.regions) (Lazy.force s.program)
    in
    let m = fst (Run.simulate ~attach:ignore machine compiled) in
    if not m.Run.verified then
      failwith
        (Printf.sprintf "%s, %s on %d cores: experiment run %s, not verified"
           s.name (Run.choice_name choice) cores
           (Run.outcome_to_string m.Run.outcome));
    Hashtbl.add s.cells key m;
    if key = (`Seq, 1, Stock) then s.work.baselines <- s.work.baselines + 1
    else s.work.simulations <- s.work.simulations + 1;
    m

let baseline s = measure s `Seq 1 Stock
let cycles s choice cores knob = (measure s choice cores knob).Run.cycles

let speedup s choice cores =
  float_of_int (baseline s).Run.cycles /. float_of_int (cycles s choice cores Stock)

type matrix = { scale : float; subjects : subject list }

let matrix ?(scale = 1.0) () =
  let suite =
    List.map
      (fun (b : Suite.benchmark) ->
        subject b.Suite.bench_name (fun () -> b.Suite.build ~scale ()))
      Suite.all
  in
  let micro =
    List.map
      (fun (m : Suite.micro) ->
        subject m.Suite.micro_label (fun () -> m.Suite.micro_build ~scale ()))
      Suite.micros
  in
  { scale; subjects = suite @ micro }

let find m name = List.find (fun s -> s.name = name) m.subjects
let work m name = (find m name).work

(* One pool task per subject, so a subject's lazy values and cell table
   are only ever touched by one domain at a time; rows come back in
   [names] order whatever [jobs] is. *)
let per_subject ?(jobs = 1) m names f =
  if List.length (List.sort_uniq compare names) <> List.length names then
    invalid_arg "Experiments.per_subject: a subject is named twice";
  let subjects = Array.of_list (List.map (find m) names) in
  Array.to_list (Voltron_pool.Pool.parallel_map ~jobs f subjects)

let suite_names = List.map (fun (b : Suite.benchmark) -> b.Suite.bench_name) Suite.all

(* --- Projections ------------------------------------------------------------- *)

let workload_class (b : Suite.benchmark) =
  let x = b.Suite.bench_mix in
  fst
    (List.fold_left
       (fun (bk, bv) (k, v) -> if v > bv then (k, v) else (bk, bv))
       ("seq", min_int)
       [
         ("ilp", x.Suite.ilp); ("tlp", x.Suite.tlp); ("llp", x.Suite.llp);
         ("seq", x.Suite.seq);
       ])

(* Two benchmarks per dominant-mix class (one for seq), so every class
   contributes a geomean series to the crossover figure without sweeping
   the whole suite at 64 cores. *)
let scaling_benches =
  [ "177.mesa"; "rawcaudio"; "179.art"; "epic"; "171.swim"; "172.mgrid";
    "197.parser" ]

(* A scatter read-modify-write loop with [conflicts] colliding iterations. *)
let tm_program ~scale conflicts () =
  let n = max 64 (int_of_float (1024. *. scale)) in
  let b = Voltron_ir.Builder.create "tm_ablate" in
  Voltron_workloads.Kernels.doall_rmw b ~name:"rmw" ~n ~conflicts ~seed:9;
  Voltron_ir.Builder.finish b

(* A strand loop with a small data-dependent conditional: unconverted, the
   decoupled build ships the branch predicate to every core each
   iteration; if-converted (SELECT), the branch disappears. *)
let ifconv_program ~scale () =
  let b = Voltron_ir.Builder.create "ifconv" in
  let module B = Voltron_ir.Builder in
  let module Inst = Voltron_isa.Inst in
  let n = max 64 (int_of_float (1600. *. scale)) in
  let size = 8192 in
  let arrays =
    List.init 3 (fun s ->
        B.array b
          ~name:(Printf.sprintf "s%d" s)
          ~size
          ~init:(fun i -> (i * (s + 3)) mod 251)
          ())
  in
  B.region b "strand" (fun () ->
      let positions = List.map (fun _ -> B.fresh b) arrays in
      let chk = B.fresh b in
      List.iteri
        (fun k pos -> B.assign b pos (Hir.Operand (B.imm (k * 577))))
        positions;
      B.assign b chk (Hir.Operand (B.imm 0));
      B.for_ b ~from:(B.imm 0) ~limit:(B.imm n) (fun _i ->
          let vals =
            List.map2
              (fun arr pos ->
                let v = B.load b arr (Hir.Reg pos) in
                let next =
                  B.binop b Inst.And
                    (B.add b (Hir.Reg pos) (B.imm 1031))
                    (B.imm (size - 1))
                in
                B.assign b pos (Hir.Operand next);
                B.mul b v (B.imm 3))
              arrays positions
          in
          let merged = List.fold_left (fun a v -> B.add b a v) (B.imm 0) vals in
          let bonus = B.fresh b in
          let c = B.cmp b Inst.Gt merged (B.imm 2048) in
          B.if_ b c
            (fun () -> B.assign b bonus (Hir.Alu (Inst.Shr, merged, B.imm 2)))
            (fun () -> B.assign b bonus (Hir.Alu (Inst.Add, merged, B.imm 17)));
          B.assign b chk
            (Hir.Operand (B.binop b Inst.Xor (Hir.Reg chk) (Hir.Reg bonus))));
      B.store b (List.hd arrays) (B.imm 0) (Hir.Reg chk));
  Voltron_ir.Builder.finish b

let names benches = Option.value benches ~default:suite_names

let per_type ?benches ?jobs m n_cores =
  per_subject ?jobs m (names benches) (fun s ->
      let sp choice = speedup s choice n_cores in
      { bench = s.name; sp_ilp = sp `Ilp; sp_tlp = sp `Tlp; sp_llp = sp `Llp })

let fig10 ?benches ?jobs m = per_type ?benches ?jobs m 2
let fig11 ?benches ?jobs m = per_type ?benches ?jobs m 4

let fig12 ?benches ?jobs m =
  per_subject ?jobs m (names benches) (fun s ->
      let base = float_of_int (baseline s).Run.cycles in
      (* A stall kind's cycles over the baseline's, averaged over cores. *)
      let fraction choice pick =
        let st = (measure s choice 4 Stock).Run.stats in
        Stat.mean
          (List.init st.Stats.n_cores (fun c ->
               float_of_int (pick (Stats.core st c)) /. base))
      in
      let coupled = fraction `Ilp and decoupled = fraction `Tlp in
      {
        sb_bench = s.name;
        coupled_i = coupled (fun c -> c.Stats.i_stall);
        coupled_d = coupled (fun c -> c.Stats.d_stall);
        coupled_other =
          coupled (fun c -> c.Stats.sync_stall) +. coupled (fun c -> c.Stats.lat_stall);
        decoupled_i = decoupled (fun c -> c.Stats.i_stall);
        decoupled_d = decoupled (fun c -> c.Stats.d_stall);
        decoupled_recv = decoupled (fun c -> c.Stats.recv_data_stall);
        decoupled_pred = decoupled (fun c -> c.Stats.recv_pred_stall);
        decoupled_sync = decoupled (fun c -> c.Stats.sync_stall);
      })

let fig13 ?benches ?jobs m =
  per_subject ?jobs m (names benches) (fun s ->
      { hs_bench = s.name; hs_2core = speedup s `Hybrid 2; hs_4core = speedup s `Hybrid 4 })

let fig14 ?benches ?jobs m =
  per_subject ?jobs m (names benches) (fun s ->
      let st = (measure s `Hybrid 4 Stock).Run.stats in
      let total = float_of_int (st.Stats.coupled_cycles + st.Stats.decoupled_cycles) in
      let coupled_pct =
        if total = 0. then 0. else 100. *. float_of_int st.Stats.coupled_cycles /. total
      in
      { ms_bench = s.name; coupled_pct; decoupled_pct = 100. -. coupled_pct })

(* Fig. 3: run every region standalone under each forced strategy and
   credit its dynamic weight (in the whole program's profile) to the
   winner. *)
let fig3 ?benches ?jobs m =
  per_subject ?jobs m (names benches) (fun s ->
      let p = Lazy.force s.program and profile = Lazy.force s.profile in
      let credit = Hashtbl.create 4 and total = ref 0 in
      let add k w =
        Hashtbl.replace credit k (w + Option.value ~default:0 (Hashtbl.find_opt credit k))
      in
      List.iter
        (fun (r : Hir.region) ->
          let w = ref 0 in
          Hir.iter_stmts
            (fun st -> w := !w + Profile.dyn_count profile st.Hir.sid)
            r.Hir.stmts;
          total := !total + !w;
          let alone =
            subject (s.name ^ "/" ^ r.Hir.region_name) (fun () ->
                { p with Hir.regions = [ r ] })
          in
          let c choice = cycles alone choice 4 Stock in
          let candidates =
            [
              (`Single, (baseline alone).Run.cycles); (`Ilp_k, c `Ilp);
              (`Tlp_k, c `Tlp); (`Llp_k, c `Llp);
            ]
          in
          let winner, _ =
            List.fold_left
              (fun (bk, bc) (k, cyc) -> if cyc < bc then (k, cyc) else (bk, bc))
              (`Single, max_int) candidates
          in
          add winner !w)
        p.Hir.regions;
      let pct k =
        Stat.percent
          (float_of_int (Option.value ~default:0 (Hashtbl.find_opt credit k)))
          (float_of_int !total)
      in
      {
        cl_bench = s.name;
        pct_ilp = pct `Ilp_k;
        pct_tlp = pct `Tlp_k;
        pct_llp = pct `Llp_k;
        pct_single = pct `Single;
      })

let micro ?jobs m =
  let best s =
    let fastest =
      List.fold_left min max_int
        (List.map (fun choice -> cycles s choice 2 Stock) [ `Ilp; `Tlp; `Llp; `Hybrid ])
    in
    float_of_int (baseline s).Run.cycles /. float_of_int fastest
  in
  let labels = List.map (fun (mi : Suite.micro) -> mi.Suite.micro_label) Suite.micros in
  List.map2
    (fun (mi : Suite.micro) mi_measured ->
      { mi_name = mi.Suite.micro_label; mi_paper = mi.Suite.micro_paper; mi_measured })
    Suite.micros
    (per_subject ?jobs m labels best)

let scaling ?(benches = scaling_benches) ?(cores = [ 16; 32; 64 ]) ?jobs m =
  List.concat
  @@ per_subject ?jobs m benches (fun s ->
         let base = float_of_int (baseline s).Run.cycles in
         let cls = workload_class (Suite.by_name s.name) in
         List.map
           (fun n ->
             let sn = cycles s `Hybrid n (Coherence Coherence.Snoop) in
             let dr = cycles s `Hybrid n (Coherence Coherence.Directory) in
             {
               sc_bench = s.name;
               sc_class = cls;
               sc_cores = n;
               sc_snoop_cycles = sn;
               sc_dir_cycles = dr;
               sc_snoop = base /. float_of_int sn;
               sc_directory = base /. float_of_int dr;
             })
           cores)

let resilience ?(benches = [ "cjpeg"; "gsmdecode"; "179.art" ])
    ?(rates = [ 0.0; 1e-4; 1e-3; 5e-3 ]) ?(seed = 42) ?jobs m =
  List.concat
  @@ per_subject ?jobs m benches (fun s ->
         let base = (baseline s).Run.cycles in
         let run_at rate =
           let tweak c =
             { c with Config.fault = Voltron_fault.Fault.uniform ~seed ~rate () }
           in
           Run.run_resilient ~profile:(Lazy.force s.profile) ~tweak ~n_cores:4
             (Lazy.force s.program)
         in
         let clean = run_at 0.0 in
         let clean_cycles = clean.Run.final.Run.cycles in
         List.map
           (fun rate ->
             let r = if rate = 0.0 then clean else run_at rate in
             let m = r.Run.final in
             let st = m.Run.stats in
             let level =
               match List.rev r.Run.attempts with
               | a :: _ -> Voltron_fault.Fault.level_name a.Run.a_level
               | [] -> assert false
             in
             {
               rs_bench = s.name;
               rs_rate = rate;
               rs_level = level;
               rs_cycles = m.Run.cycles;
               rs_overhead = float_of_int m.Run.cycles /. float_of_int clean_cycles;
               rs_speedup = float_of_int base /. float_of_int m.Run.cycles;
               rs_faults = st.Stats.faults_injected;
               rs_retries = st.Stats.net_retries;
               rs_ecc =
                 st.Stats.ecc_corrected + st.Stats.ecc_scrubbed
                 + st.Stats.flips_masked;
               rs_aborts = st.Stats.spurious_aborts;
               rs_verified = m.Run.verified;
             })
           rates)

let row ab_label ab_values = { ab_label; ab_values }

let ablation_modes m =
  List.map
    (fun name ->
      let s = find m name in
      let sp choice = speedup s choice 4 in
      let singles = [ sp `Ilp; sp `Tlp; sp `Llp ] in
      row name
        [
          ("hybrid", sp `Hybrid);
          ("best-single", List.fold_left max 0. singles);
          ("worst-single", List.fold_left min infinity singles);
        ])
    [ "164.gzip"; "171.swim"; "177.mesa"; "179.art"; "cjpeg"; "gsmdecode" ]

let ablation_capacity m =
  let s = find m "epic" in
  let base = float_of_int (baseline s).Run.cycles in
  List.map
    (fun capacity ->
      row
        (Printf.sprintf "capacity %d" capacity)
        [ ("TLP speedup", base /. float_of_int (cycles s `Tlp 4 (Net_capacity capacity))) ])
    [ 1; 2; 4; 32 ]

let ablation_memlat m =
  let s = find m "179.art" in
  List.map
    (fun lat ->
      let base = float_of_int (cycles s `Seq 1 (Mem_lat lat)) in
      let sp choice = base /. float_of_int (cycles s choice 4 (Mem_lat lat)) in
      row
        (Printf.sprintf "mem latency %d" lat)
        [ ("coupled ILP", sp `Ilp); ("decoupled TLP", sp `Tlp) ])
    [ 50; 100; 200 ]

(* Every run is compiled with the conflict-free twin's profile:
   speculation believes the loop is clean, exactly like profiling on a
   friendlier input. *)
let ablation_tm m =
  let clean_profile = Profile.collect (tm_program ~scale:m.scale 0 ()) in
  List.map
    (fun conflicts ->
      let s =
        subject ~profile:clean_profile "tm_ablate" (tm_program ~scale:m.scale conflicts)
      in
      let r = measure s `Llp 4 Stock in
      let base = float_of_int (baseline s).Run.cycles in
      row
        (Printf.sprintf "%d colliding iterations" conflicts)
        [
          ("speedup", base /. float_of_int r.Run.cycles);
          ("tm rounds", float_of_int r.Run.stats.Stats.tm_rounds);
          ("conflicts", float_of_int r.Run.stats.Stats.tm_conflicts);
        ])
    [ 0; 4; 16; 64 ]

let ablation_scaling m =
  List.map
    (fun name ->
      let s = find m name in
      row name
        [
          ("2 cores", speedup s `Hybrid 2); ("4 cores", speedup s `Hybrid 4);
          ("8 cores", speedup s `Hybrid 8);
        ])
    [ "171.swim"; "179.art"; "177.mesa"; "cjpeg" ]

let ablation_ifconv m =
  let measure_tlp build =
    let s = subject "ifconv" build in
    let r = measure s `Tlp 4 Stock in
    let pred =
      Stat.mean
        (List.init 4 (fun c ->
             float_of_int (Stats.core r.Run.stats c).Stats.recv_pred_stall))
    in
    [ ("TLP speedup", speedup s `Tlp 4); ("pred-stall cycles/core", pred) ]
  in
  let build = ifconv_program ~scale:m.scale in
  [
    row "with branch" (measure_tlp build);
    row "if-converted" (measure_tlp (fun () -> Voltron_compiler.Opt.program (build ())));
  ]

let ablation_energy m =
  List.map
    (fun name ->
      let s = find m name in
      let serial = baseline s and r = measure s `Hybrid 4 Stock in
      row name
        [
          ("speedup", float_of_int serial.Run.cycles /. float_of_int r.Run.cycles);
          ("energy ratio", r.Run.energy.Energy.e_total /. serial.Run.energy.Energy.e_total);
          ("EDP ratio", r.Run.energy.Energy.edp /. serial.Run.energy.Energy.edp);
        ])
    [ "171.swim"; "179.art"; "cjpeg"; "gsmdecode"; "rawcaudio" ]

(* One monolithic wide-issue core running the serial code: the paper's
   "more powerful core" alternative (1). *)
let ablation_issue_width m =
  List.map
    (fun name ->
      let s = find m name in
      let base = float_of_int (baseline s).Run.cycles in
      let wide width = base /. float_of_int (cycles s `Seq 1 (Issue_width width)) in
      row name
        [
          ("1 core, 2-issue", wide 2);
          ("1 core, 4-issue", wide 4);
          ("Voltron 4x1-issue", speedup s `Hybrid 4);
        ])
    [ "171.swim"; "179.art"; "177.mesa"; "gsmdecode"; "rawcaudio" ]

let ablations =
  [
    ("A1: dual-mode value — hybrid vs committing to one mode (4 cores)", ablation_modes);
    ("A2: queue channel capacity (epic, forced TLP, 4 cores)", ablation_capacity);
    ( "A3: main-memory latency — decoupled tolerance vs coupled fragility (179.art, 4 cores)",
      ablation_memlat );
    ( "A4: TM mis-speculation — profiled clean, run with collisions (scatter RMW, 4 cores)",
      ablation_tm );
    ("A5: core scaling, hybrid (coupled groups capped at 4)", ablation_scaling);
    ( "A6: if-conversion — predicating away a strand loop's branch (forced TLP, 4 cores)",
      ablation_ifconv );
    ( "A7: energy and EDP — 4-core hybrid vs 1-core baseline (first-order model)",
      ablation_energy );
    ( "A8: one wide-issue core vs four simple Voltron cores (speedup over 1-issue serial)",
      ablation_issue_width );
  ]

let counters ?jobs m =
  per_subject ?jobs m suite_names (fun s ->
      (s.name, (baseline s).Run.cycles, measure s `Hybrid 4 Stock))

let crossover rows =
  let keys =
    List.sort_uniq compare (List.map (fun r -> (r.sc_class, r.sc_cores)) rows)
  in
  List.map
    (fun (cls, n) ->
      let sel pick =
        List.filter_map
          (fun r ->
            if r.sc_class = cls && r.sc_cores = n then Some (pick r) else None)
          rows
      in
      let sn = Stat.geomean (sel (fun r -> r.sc_snoop)) in
      let dr = Stat.geomean (sel (fun r -> r.sc_directory)) in
      {
        cx_class = cls;
        cx_cores = n;
        cx_snoop = sn;
        cx_directory = dr;
        cx_winner =
          (if dr > sn *. 1.01 then "directory"
           else if sn > dr *. 1.01 then "snoop"
           else "tie");
      })
    keys

let print_ablations ~title rows =
  print_endline title;
  match rows with
  | [] -> ()
  | first :: _ ->
    Table.print
      ~header:("" :: List.map fst first.ab_values)
      (List.map
         (fun r ->
           r.ab_label :: List.map (fun (_, v) -> Table.cell_f v) r.ab_values)
         rows)

(* --- Printing --------------------------------------------------------------- *)

let f = Table.cell_f
let pct = Table.cell_pct

(* A table of one row per benchmark, then a row averaging each column. *)
let print_averaged ~title ~header ~cell label columns rows =
  print_endline title;
  let row name values = name :: List.map cell values in
  Table.print ~header
    (List.map (fun r -> row (label r) (List.map (fun c -> c r) columns)) rows
    @ [ row "average" (List.map (fun c -> Stat.mean (List.map c rows)) columns) ])

let print_per_type ~title =
  print_averaged ~title ~header:[ "benchmark"; "ILP"; "fine-grain TLP"; "LLP" ] ~cell:f
    (fun r -> r.bench)
    [ (fun r -> r.sp_ilp); (fun r -> r.sp_tlp); (fun r -> r.sp_llp) ]

let print_fig10 rows =
  print_per_type ~title:"Figure 10: speedup on 2-core Voltron, each parallelism type alone"
    rows

let print_fig11 rows =
  print_per_type ~title:"Figure 11: speedup on 4-core Voltron, each parallelism type alone"
    rows

let print_fig3 =
  print_averaged
    ~title:
      "Figure 3: breakdown of exploitable parallelism, 4-core (percent of dynamic execution)"
    ~header:[ "benchmark"; "ILP"; "fine-grain TLP"; "LLP"; "single core" ]
    ~cell:pct
    (fun r -> r.cl_bench)
    [ (fun r -> r.pct_ilp); (fun r -> r.pct_tlp); (fun r -> r.pct_llp); (fun r -> r.pct_single) ]

let print_fig12 rows =
  print_endline
    "Figure 12: stall cycles / serial cycles, 4-core (left: coupled ILP; right: decoupled TLP)";
  Table.print
    ~header:
      [ "benchmark"; "cI"; "cD"; "cOther"; "dI"; "dD"; "dRecv"; "dPred"; "dSync" ]
    (List.map
       (fun r ->
         [
           r.sb_bench; f r.coupled_i; f r.coupled_d; f r.coupled_other;
           f r.decoupled_i; f r.decoupled_d; f r.decoupled_recv;
           f r.decoupled_pred; f r.decoupled_sync;
         ])
       rows)

let print_fig13 =
  print_averaged ~title:"Figure 13: hybrid-parallelism speedup"
    ~header:[ "benchmark"; "2-core"; "4-core" ] ~cell:f
    (fun r -> r.hs_bench)
    [ (fun r -> r.hs_2core); (fun r -> r.hs_4core) ]

let print_fig14 rows =
  print_endline "Figure 14: time in each execution mode (4-core hybrid)";
  Table.print
    ~header:[ "benchmark"; "coupled"; "decoupled" ]
    (List.map (fun r -> [ r.ms_bench; pct r.coupled_pct; pct r.decoupled_pct ]) rows)

let print_micro rows =
  print_endline "Figs. 7-9 worked micro-examples (2-core speedup)";
  Table.print
    ~header:[ "example"; "paper"; "measured" ]
    (List.map (fun r -> [ r.mi_name; f r.mi_paper; f r.mi_measured ]) rows)

let print_scaling rows =
  print_endline
    "Coherence scaling: hybrid speedup, snoop vs directory (speedup over \
     1-core sequential)";
  Table.print
    ~header:[ "benchmark"; "class"; "cores"; "snoop"; "directory"; "dir/snoop" ]
    (List.map
       (fun r ->
         [
           r.sc_bench;
           r.sc_class;
           string_of_int r.sc_cores;
           f r.sc_snoop;
           f r.sc_directory;
           f (float_of_int r.sc_snoop_cycles /. float_of_int r.sc_dir_cycles);
         ])
       rows)

let print_crossover rows =
  print_endline
    "Crossover per workload class (geomean speedup; directory wins where \
     home-bank serialization beats the shared bus)";
  Table.print
    ~header:[ "class"; "cores"; "snoop"; "directory"; "winner" ]
    (List.map
       (fun r ->
         [
           r.cx_class;
           string_of_int r.cx_cores;
           f r.cx_snoop;
           f r.cx_directory;
           r.cx_winner;
         ])
       rows)

let print_resilience rows =
  print_endline
    "Resilience: seeded fault-rate sweep, 4-core hybrid (overhead over the \
     fault-free run)";
  Table.print
    ~header:
      [
        "benchmark"; "rate"; "level"; "speedup"; "overhead"; "faults";
        "retries"; "ecc"; "tm-aborts"; "verified";
      ]
    (List.map
       (fun r ->
         [
           r.rs_bench;
           Printf.sprintf "%g" r.rs_rate;
           r.rs_level;
           f r.rs_speedup;
           f r.rs_overhead;
           string_of_int r.rs_faults;
           string_of_int r.rs_retries;
           string_of_int r.rs_ecc;
           string_of_int r.rs_aborts;
           (if r.rs_verified then "yes" else "NO");
         ])
       rows)
