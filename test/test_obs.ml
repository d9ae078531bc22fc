(* Observability layer tests: the per-cycle accounting invariant, region
   attribution reconciling exactly with the global cycle count, the JSON
   emitter/parser roundtrip, the Chrome trace-event export's structural
   guarantees, metrics snapshots/deltas and the interval sampler. *)

module Suite = Voltron_workloads.Suite
module Config = Voltron_machine.Config
module Machine = Voltron_machine.Machine
module Stats = Voltron_machine.Stats
module Trace = Voltron_obs.Trace
module Driver = Voltron_compiler.Driver
module Json = Voltron_obs.Json
module Metrics = Voltron_obs.Metrics
module Region_profile = Voltron_obs.Region_profile
module Sampler = Voltron_obs.Sampler
module Chrome_trace = Voltron_obs.Chrome_trace
module Blame = Voltron_obs.Blame
module Critpath = Voltron_obs.Critpath

let representative_runs =
  [
    ("micro:gsm_llp", Suite.micro_gsm_llp ~scale:1.0 (), `Hybrid, 2);
    ("micro:gsm_ilp", Suite.micro_gsm_ilp ~scale:1.0 (), `Ilp, 2);
    ("micro:gzip_strands", Suite.micro_gzip_strands ~scale:1.0 (), `Tlp, 2);
    ("cjpeg", (Suite.by_name "cjpeg").Suite.build ~scale:0.25 (), `Hybrid, 4);
    ("179.art", (Suite.by_name "179.art").Suite.build ~scale:0.25 (), `Hybrid, 4);
  ]

(* Every stepped cycle, every core records exactly one of busy, a stall, or
   idle — so the per-core totals must reconstruct the run's cycle count. *)
let test_per_core_invariant () =
  List.iter
    (fun (name, p, choice, n_cores) ->
      let m = Voltron.Run.run ~choice ~n_cores p in
      (match m.Voltron.Run.outcome with
      | Voltron.Run.Completed -> ()
      | o -> Alcotest.fail (name ^ ": " ^ Voltron.Run.outcome_to_string o));
      let st = m.Voltron.Run.stats in
      for core = 0 to st.Stats.n_cores - 1 do
        let c = Stats.core st core in
        Alcotest.(check int)
          (Printf.sprintf "%s core %d: busy+stalls+idle = cycles" name core)
          st.Stats.cycles
          (c.Stats.busy + Stats.total_stalls c + c.Stats.idle)
      done)
    representative_runs

(* Region attribution accounts every core-cycle to exactly one
   (region, mode) cell: the acct total must equal n_cores * cycles, and
   each stall kind summed over regions must equal the global counter. *)
let test_region_attribution_reconciles () =
  List.iter
    (fun (name, p, choice, n_cores) ->
      let machine = Config.default ~n_cores in
      let compiled = Driver.compile ~machine ~choice p in
      let m = Machine.create machine compiled.Driver.executable in
      let rp = Region_profile.attach m compiled in
      let result = Machine.run m in
      (match result.Machine.outcome with
      | Machine.Finished -> ()
      | _ -> Alcotest.fail (name ^ ": run did not finish"));
      Alcotest.(check int)
        (name ^ ": attribution total = n_cores * cycles")
        (n_cores * result.Machine.cycles)
        (Region_profile.total_cycles rp);
      let st = Machine.stats m in
      let rows = Region_profile.rows rp in
      List.iter
        (fun kind ->
          let from_rows =
            List.fold_left
              (fun acc (r : Region_profile.row) ->
                acc + r.Region_profile.r_stalls.(Stats.stall_kind_index kind))
              0 rows
          in
          let global = ref 0 in
          for core = 0 to st.Stats.n_cores - 1 do
            global := !global + Stats.stall_of (Stats.core st core) kind
          done;
          Alcotest.(check int)
            (Printf.sprintf "%s: %s sum over regions = global" name
               (Stats.stall_kind_label kind))
            !global from_rows)
        Stats.all_stall_kinds)
    representative_runs

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("a", Json.Int 42);
        ("b", Json.Float 1.5);
        ("esc", Json.Str "line\nquote\" back\\slash\ttab");
        ("empty", Json.Obj []);
        ("arr", Json.List [ Json.Null; Json.Bool true; Json.Int (-7) ]);
        ("nested", Json.Obj [ ("xs", Json.List [ Json.Str "s" ]) ]);
      ]
  in
  (match Json.parse (Json.to_string v) with
  | Ok v' -> Alcotest.(check bool) "compact roundtrip" true (v = v')
  | Error e -> Alcotest.fail ("parse of to_string failed: " ^ e));
  (match Json.parse (Format.asprintf "%a" Json.pp v) with
  | Ok v' -> Alcotest.(check bool) "pretty roundtrip" true (v = v')
  | Error e -> Alcotest.fail ("parse of pp failed: " ^ e));
  (match Json.parse "{\"a\": 1} trailing" with
  | Ok _ -> Alcotest.fail "trailing garbage accepted"
  | Error _ -> ());
  (match Json.parse "[1, 2," with
  | Ok _ -> Alcotest.fail "truncated array accepted"
  | Error _ -> ());
  Alcotest.(check string)
    "non-finite floats emit null" "[null,null]"
    (Json.to_string (Json.List [ Json.Float nan; Json.Float infinity ]));
  match Json.parse "{\"u\": \"\\u0041\\u00e9\", \"n\": -3.5e2}" with
  | Ok v ->
    Alcotest.(check (option string))
      "unicode escapes" (Some "A\xc3\xa9")
      (Option.bind (Json.member "u" v) Json.to_string_opt);
    Alcotest.(check (option (float 1e-9)))
      "float literal" (Some (-350.))
      (Option.bind (Json.member "n" v) Json.to_float_opt)
  | Error e -> Alcotest.fail ("escape parse failed: " ^ e)

(* The Chrome trace export must parse back, keep timestamps nondecreasing
   in event order, and balance every B with an E on the same track. *)
let test_chrome_trace_export () =
  let p = (Suite.by_name "cjpeg").Suite.build ~scale:0.25 () in
  let n_cores = 4 in
  let machine = { (Config.default ~n_cores) with Config.fast_forward = false } in
  let compiled = Driver.compile ~machine p in
  let m = Machine.create machine compiled.Driver.executable in
  let tracer = Trace.create () in
  Trace.attach m tracer compiled.Driver.executable;
  let result = Machine.run m in
  (match result.Machine.outcome with
  | Machine.Finished -> ()
  | _ -> Alcotest.fail "trace run did not finish");
  let json =
    Chrome_trace.of_trace ~n_cores ~cycles:result.Machine.cycles tracer
  in
  let reparsed =
    match Json.parse (Json.to_string json) with
    | Ok v -> v
    | Error e -> Alcotest.fail ("chrome trace does not parse: " ^ e)
  in
  let events =
    match Option.bind (Json.member "traceEvents" reparsed) Json.to_list_opt with
    | Some evs -> evs
    | None -> Alcotest.fail "no traceEvents array"
  in
  Alcotest.(check bool) "has events" true (List.length events > n_cores + 2);
  let field name ev = Json.member name ev in
  let str name ev = Option.bind (field name ev) Json.to_string_opt in
  let last_ts = ref 0 in
  let depth = Hashtbl.create 8 in
  let flows = Hashtbl.create 16 in
  List.iter
    (fun ev ->
      match str "ph" ev with
      | None -> Alcotest.fail "event without ph"
      | Some "M" -> ()
      | Some ph ->
        let ts =
          match Option.bind (field "ts" ev) Json.to_int_opt with
          | Some ts -> ts
          | None -> Alcotest.fail "timed event without ts"
        in
        Alcotest.(check bool) "ts nondecreasing" true (ts >= !last_ts);
        last_ts := ts;
        let tid =
          match Option.bind (field "tid" ev) Json.to_int_opt with
          | Some tid -> tid
          | None -> Alcotest.fail "event without tid"
        in
        let d = Option.value ~default:0 (Hashtbl.find_opt depth tid) in
        (match ph with
        | "B" -> Hashtbl.replace depth tid (d + 1)
        | "E" ->
          Alcotest.(check bool) "E without open B" true (d > 0);
          Hashtbl.replace depth tid (d - 1)
        | "s" | "f" ->
          let id =
            match Option.bind (field "id" ev) Json.to_int_opt with
            | Some id -> id
            | None -> Alcotest.fail "flow event without id"
          in
          let starts, finishes =
            Option.value ~default:(0, 0) (Hashtbl.find_opt flows id)
          in
          if ph = "s" then Hashtbl.replace flows id (starts + 1, finishes)
          else begin
            (* In sorted order the binding "f" never precedes its "s". *)
            Alcotest.(check (pair int int))
              "flow f follows its s" (1, 0) (starts, finishes);
            Hashtbl.replace flows id (starts, finishes + 1)
          end
        | _ -> ()))
    events;
  Hashtbl.iter
    (fun tid d ->
      Alcotest.(check int) (Printf.sprintf "track %d spans balanced" tid) 0 d)
    depth;
  (* Every emitted flow has both endpoints — half-open ones are culled into
     the footer count instead. *)
  Alcotest.(check bool) "some flow arrows" true (Hashtbl.length flows > 0);
  Hashtbl.iter
    (fun id (starts, finishes) ->
      Alcotest.(check (pair int int))
        (Printf.sprintf "flow %d paired" id)
        (1, 1) (starts, finishes))
    flows;
  Alcotest.(check bool)
    "culled_flows footer present" true
    (Option.bind
       (Option.bind (Json.member "otherData" reparsed)
          (Json.member "culled_flows"))
       Json.to_int_opt
    <> None)

let test_metrics_snapshot_and_delta () =
  let p = Suite.micro_gsm_llp ~scale:1.0 () in
  let m = Voltron.Run.run ~n_cores:2 p in
  let metrics =
    Metrics.of_stats ~label:"gsm_llp" ~coherence:m.Voltron.Run.coh_stats
      ~network:m.Voltron.Run.net_stats m.Voltron.Run.stats
  in
  Alcotest.(check (option (float 1e-9)))
    "find cycles"
    (Some (float_of_int m.Voltron.Run.cycles))
    (Metrics.find "cycles" metrics);
  Alcotest.(check bool)
    "accesses flow through" true
    (List.assoc "cache_accesses" (Metrics.counters metrics) > 0);
  let d = Metrics.delta ~before:metrics ~after:metrics in
  List.iter
    (fun (name, v) ->
      if name <> "net_max_occupancy" then
        Alcotest.(check int) ("self-delta " ^ name) 0 v)
    (Metrics.counters d);
  (* to_json carries every counter faithfully. *)
  let j = Metrics.to_json metrics in
  Alcotest.(check (option int))
    "json cycles"
    (Some m.Voltron.Run.cycles)
    (Option.bind
       (Option.bind (Json.member "machine" j) (Json.member "cycles"))
       Json.to_int_opt)

(* The exported schema: the flat registry's names in order, the gauge
   names, and the keys of every [to_json] group. Reports and PROFILE.json
   readers depend on these exact names. *)
let test_metrics_schema () =
  let p = Suite.micro_gsm_llp ~scale:0.2 () in
  let compiled = Driver.compile ~machine:(Config.default ~n_cores:2) p in
  let m = Machine.create (Config.default ~n_cores:2) compiled.Driver.executable in
  ignore (Machine.run m);
  let metrics = Metrics.snapshot ~label:"gsm_llp" m in
  let strings = Alcotest.(list string) in
  let core =
    [ "busy"; "i_stall"; "d_stall"; "lat_stall"; "recv_data_stall";
      "recv_pred_stall"; "sync_stall"; "idle"; "bundles"; "ops"; "ops_mem";
      "ops_comm"; "ops_mul_div" ]
  and machine =
    [ "cycles"; "coupled_cycles"; "decoupled_cycles"; "mode_switches";
      "spawns"; "tm_rounds"; "tm_conflicts" ]
  and cache_tail =
    [ "l1d_misses"; "l1i_misses"; "l2_misses"; "c2c_transfers"; "upgrades";
      "writebacks"; "bus_wait_cycles"; "dir_lookups"; "dir_invalidations";
      "dir_indirections" ]
  and net = [ "msgs_sent"; "total_latency"; "max_occupancy"; "retries"; "nacks" ]
  and gauges =
    [ "ipc"; "bundle_ipc"; "occupancy"; "l1d_miss_rate"; "l1i_miss_rate";
      "l2_miss_rate"; "avg_net_latency"; "avg_tm_conflict_rate" ]
  in
  let faults =
    [ "faults_injected"; "msgs_dropped"; "msgs_corrupted"; "net_retries";
      "net_nacks"; "ecc_corrected"; "ecc_scrubbed"; "flips_masked";
      "spurious_aborts"; "stall_faults" ]
  in
  (* The flat view keeps the network group's retries and NACKs only. *)
  let faults_flat =
    List.filter (fun k -> k <> "net_retries" && k <> "net_nacks") faults
  in
  let flat =
    machine @ core @ ("cache_accesses" :: cache_tail)
    @ [ "msgs_sent"; "net_total_latency"; "net_max_occupancy"; "net_retries";
        "net_nacks" ]
    @ faults_flat
  in
  Alcotest.(check int) "44 counters" 44 (List.length flat);
  Alcotest.check strings "flat counter names" flat
    (List.map fst (Metrics.counters metrics));
  List.iter
    (fun g ->
      Alcotest.(check bool) ("gauge " ^ g) true (Metrics.find g metrics <> None))
    gauges;
  let keys = function
    | Json.Obj kvs -> List.map fst kvs
    | _ -> Alcotest.fail "not a JSON object"
  in
  let j = Metrics.to_json metrics in
  let group name =
    match Json.member name j with
    | Some (Json.List (x :: _)) -> keys x
    | Some x -> keys x
    | None -> Alcotest.fail ("missing group " ^ name)
  in
  Alcotest.check strings "top-level keys"
    [ "label"; "machine"; "cores"; "cache"; "per_core_cache"; "net"; "faults";
      "gauges" ]
    (keys j);
  Alcotest.check strings "machine keys" machine (group "machine");
  Alcotest.check strings "core keys" core (group "cores");
  Alcotest.check strings "cache keys" ("accesses" :: cache_tail) (group "cache");
  Alcotest.check strings "per-core cache keys" ("accesses" :: cache_tail)
    (group "per_core_cache");
  Alcotest.check strings "net keys" net (group "net");
  Alcotest.check strings "fault keys" faults (group "faults");
  Alcotest.check strings "gauge keys" gauges (group "gauges")

let test_sampler () =
  let p = (Suite.by_name "cjpeg").Suite.build ~scale:0.25 () in
  let machine = Config.default ~n_cores:4 in
  let compiled = Driver.compile ~machine p in
  let m = Machine.create machine compiled.Driver.executable in
  let sampler = Sampler.attach ~every:500 m in
  let result = Machine.run m in
  (match result.Machine.outcome with
  | Machine.Finished -> ()
  | _ -> Alcotest.fail "sampler run did not finish");
  let samples = Sampler.samples sampler in
  Alcotest.(check bool)
    "collected samples" true
    (List.length samples = result.Machine.cycles / 500);
  List.iteri
    (fun i s ->
      Alcotest.(check int)
        (Printf.sprintf "sample %d cycle" i)
        ((i + 1) * 500) s.Sampler.s_cycle;
      Alcotest.(check bool)
        (Printf.sprintf "sample %d occupancy in range" i)
        true
        (s.Sampler.s_occupancy >= 0. && s.Sampler.s_occupancy <= 1.))
    samples;
  Alcotest.(check bool) "attach rejects every<=0" true
    (match Sampler.attach ~every:0 m with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* The sampler's bulk-window synthesis must be invisible: the same run with
   stall fast-forward off (forced per-cycle windows) yields the identical
   sample series. *)
let test_sampler_fast_forward_invariant () =
  let samples_with ~fast_forward =
    let p = (Suite.by_name "cjpeg").Suite.build ~scale:0.25 () in
    let machine = { (Config.default ~n_cores:4) with Config.fast_forward } in
    let compiled = Driver.compile ~machine p in
    let m = Machine.create machine compiled.Driver.executable in
    let sampler = Sampler.attach ~every:500 m in
    let result = Machine.run m in
    (match result.Machine.outcome with
    | Machine.Finished -> ()
    | _ -> Alcotest.fail "sampler ff run did not finish");
    Sampler.samples sampler
  in
  let ff = samples_with ~fast_forward:true in
  let slow = samples_with ~fast_forward:false in
  Alcotest.(check int) "same sample count" (List.length slow) (List.length ff);
  List.iter2
    (fun (a : Sampler.sample) (b : Sampler.sample) ->
      Alcotest.(check int) "sample cycle" a.Sampler.s_cycle b.Sampler.s_cycle;
      Alcotest.(check (float 1e-9)) "sample ipc" a.Sampler.s_ipc b.Sampler.s_ipc;
      Alcotest.(check int) "sample msgs" a.Sampler.s_msgs b.Sampler.s_msgs)
    slow ff

(* --- causal profiler ----------------------------------------------------- *)

let run_blame ?(tweak = fun c -> c) ~choice ~n_cores p =
  let machine = tweak (Config.default ~n_cores) in
  let compiled = Driver.compile ~machine ~choice p in
  let m = Machine.create machine compiled.Driver.executable in
  let b = Blame.attach m compiled in
  let result = Machine.run m in
  (match result.Machine.outcome with
  | Machine.Finished -> ()
  | _ -> Alcotest.fail "blame run did not finish");
  (b, result)

(* The reconciliation invariant over the whole suite x strategy x core
   matrix: the recording tiles every core's cycles, and the critical path's
   segments tile the run's cycle range, so its length IS the cycle count. *)
let test_critpath_reconciles () =
  let programs =
    List.map
      (fun (b : Suite.benchmark) ->
        (b.Suite.bench_name, b.Suite.build ~scale:0.2 ()))
      Suite.all
    @ List.map
        (fun (m : Suite.micro) -> (m.Suite.micro_name, m.Suite.micro_build ~scale:0.5 ()))
        Suite.micros
  in
  List.iter
    (fun (name, p) ->
      List.iter
        (fun (sname, choice) ->
          List.iter
            (fun n_cores ->
              let b, result = run_blame ~choice ~n_cores p in
              let label =
                Printf.sprintf "%s/%s/%d cores" name sname n_cores
              in
              (match Blame.coverage b with
              | Ok () -> ()
              | Error e -> Alcotest.fail (label ^ ": coverage hole: " ^ e));
              let cp = Critpath.compute b in
              Alcotest.(check int)
                (label ^ ": critical path = end-to-end cycles")
                result.Machine.cycles (Critpath.length cp);
              Alcotest.(check int)
                (label ^ ": total matches machine")
                result.Machine.cycles (Critpath.total cp))
            [ 2; 4 ])
        [
          ("seq", `Seq);
          ("ilp", `Ilp);
          ("tlp", `Tlp);
          ("llp", `Llp);
          ("hybrid", `Hybrid);
        ])
    programs

(* A sequential run's critical path never leaves core 0. *)
let test_serial_path_one_core () =
  let p = (Suite.by_name "cjpeg").Suite.build ~scale:0.25 () in
  let b, result = run_blame ~choice:`Seq ~n_cores:4 p in
  let cp = Critpath.compute b in
  List.iter
    (fun (g : Critpath.seg) ->
      if g.Critpath.g_core <> 0 then
        Alcotest.failf "path segment on core %d (%s) in a seq run"
          g.Critpath.g_core
          (Blame.kind_label g.Critpath.g_kind))
    (Critpath.segments cp);
  Alcotest.(check int) "seq path reconciles" result.Machine.cycles
    (Critpath.length cp)

(* Coz-style causality check: the what-if estimate from the recorded path
   must agree with a real rerun whose configuration changed the same way.
   Two edge classes (network hop latency, TM aborts) on two workloads
   each. *)
let test_whatif_agrees_with_rerun () =
  let measure ?(tweak = fun c -> c) ~choice ~n_cores p =
    let machine = tweak (Config.default ~n_cores) in
    let compiled = Driver.compile ~machine ~choice p in
    let m = Machine.create machine compiled.Driver.executable in
    let result = Machine.run m in
    (match result.Machine.outcome with
    | Machine.Finished -> ()
    | _ -> Alcotest.fail "rerun did not finish");
    result.Machine.cycles
  in
  let within_15pct label predicted measured =
    let err = Float.abs (predicted -. measured) /. measured in
    if err > 0.15 then
      Alcotest.failf "%s: predicted x%.3f vs measured x%.3f (%.1f%% off)"
        label predicted measured (100. *. err)
  in
  (* Network latency: free wires, predicted from the path vs rerun with
     net_hop_cost = 0. *)
  List.iter
    (fun (name, p) ->
      let b, result = run_blame ~choice:`Hybrid ~n_cores:4 p in
      let cp = Critpath.compute b in
      let base = float_of_int result.Machine.cycles in
      let predicted = base /. float_of_int (Critpath.whatif_net cp ~scale:0.) in
      let rerun =
        measure
          ~tweak:(fun c -> { c with Config.net_hop_cost = 0 })
          ~choice:`Hybrid ~n_cores:4 p
      in
      within_15pct (name ^ " net what-if") predicted
        (base /. float_of_int rerun))
    [
      ("micro:gzip_strands", Suite.micro_gzip_strands ~scale:1.0 ());
      ("164.gzip", (Suite.by_name "164.gzip").Suite.build ~scale:0.3 ());
    ];
  (* TM aborts: inject spurious aborts, predict their removal from that
     run's path, measure the injection-free run. *)
  List.iter
    (fun (name, p) ->
      let tweak c =
        {
          c with
          Config.fault =
            {
              Voltron_fault.Fault.disabled with
              Voltron_fault.Fault.tm_abort_rate = 0.9;
              fault_seed = 1;
            };
        }
      in
      let b, injected = run_blame ~tweak ~choice:`Hybrid ~n_cores:4 p in
      let cp = Critpath.compute b in
      Alcotest.(check int)
        (name ^ ": injected run reconciles")
        injected.Machine.cycles (Critpath.length cp);
      let inj = float_of_int injected.Machine.cycles in
      let predicted = inj /. float_of_int (Critpath.whatif_tm cp) in
      let clean = measure ~choice:`Hybrid ~n_cores:4 p in
      within_15pct (name ^ " tm what-if") predicted
        (inj /. float_of_int clean))
    [
      ("164.gzip", (Suite.by_name "164.gzip").Suite.build ~scale:0.3 ());
      ("175.vpr", (Suite.by_name "175.vpr").Suite.build ~scale:0.3 ());
    ]

(* BLAME.json exports every field of the report: the header, each blame
   row and what-if in order, the TM table and both matrices. *)
let test_blame_report_json_fields () =
  let p = (Suite.by_name "164.gzip").Suite.build ~scale:0.3 () in
  let b, _ = run_blame ~choice:`Hybrid ~n_cores:4 p in
  let cp = Critpath.compute b in
  let rep = Critpath.report ~bench:"164.gzip" ~strategy:"hybrid" cp in
  Alcotest.(check bool) "report has blame rows" true (rep.Critpath.r_rows <> []);
  let j =
    match Json.parse (Json.to_string (Critpath.report_to_json rep)) with
    | Ok j -> j
    | Error e -> Alcotest.fail ("blame json does not parse: " ^ e)
  in
  let get name conv j =
    match Option.bind (Json.member name j) conv with
    | Some v -> v
    | None -> Alcotest.fail ("bad or missing " ^ name)
  in
  let str = Json.to_string_opt and int = Json.to_int_opt in
  let list name j = get name Json.to_list_opt j in
  Alcotest.(check string) "bench" rep.Critpath.r_bench (get "bench" str j);
  Alcotest.(check string) "strategy" rep.Critpath.r_strategy (get "strategy" str j);
  Alcotest.(check int) "n_cores" rep.Critpath.r_n_cores (get "n_cores" int j);
  Alcotest.(check int) "cycles" rep.Critpath.r_cycles (get "cycles" int j);
  Alcotest.(check int) "critical_path" rep.Critpath.r_path (get "critical_path" int j);
  let rows = list "blame" j in
  Alcotest.(check int) "blame rows" (List.length rep.Critpath.r_rows) (List.length rows);
  List.iter2
    (fun (r : Critpath.row) x ->
      Alcotest.(check string) "edge" (Blame.kind_label r.Critpath.b_kind) (get "edge" str x);
      Alcotest.(check string) "region" r.Critpath.b_region (get "region" str x);
      Alcotest.(check string) "mode"
        (if r.Critpath.b_mode = 0 then "coupled" else "decoupled")
        (get "mode" str x);
      Alcotest.(check int) "core" r.Critpath.b_core (get "core" int x);
      Alcotest.(check int) "peer" r.Critpath.b_peer (get "peer" int x);
      Alcotest.(check int) "row cycles" r.Critpath.b_cycles (get "cycles" int x))
    rep.Critpath.r_rows rows;
  List.iter2
    (fun (w : Critpath.whatif) x ->
      Alcotest.(check string) "class" w.Critpath.w_class (get "class" str x);
      Alcotest.(check int) "predicted" w.Critpath.w_predicted
        (get "predicted_cycles" int x);
      Alcotest.(check (float 1e-6)) "speedup" w.Critpath.w_speedup
        (get "speedup" Json.to_float_opt x))
    rep.Critpath.r_whatif (list "whatif" j);
  List.iter2
    (fun (name, begins, commits, aborts) x ->
      Alcotest.(check (list int)) ("tm " ^ name) [ begins; commits; aborts ]
        (List.map (fun k -> get k int x) [ "begins"; "commits"; "aborts" ]);
      Alcotest.(check string) "tm region" name (get "region" str x))
    rep.Critpath.r_tm (list "tm_regions" j);
  let matrix name =
    List.map
      (fun row -> List.filter_map Json.to_int_opt (Option.get (Json.to_list_opt row)))
      (list name j)
  in
  let rows_of m = Array.to_list (Array.map Array.to_list m) in
  Alcotest.(check (list (list int))) "wait matrix" (rows_of rep.Critpath.r_wait)
    (matrix "wait_matrix");
  Alcotest.(check (list (list int))) "msgs matrix" (rows_of rep.Critpath.r_msgs)
    (matrix "msgs_matrix")

(* The recorder's side tables: TM per-region history and the cross-core
   wait/message matrices the DSWP rebalancing work needs. *)
let test_blame_side_tables () =
  let p = (Suite.by_name "164.gzip").Suite.build ~scale:0.3 () in
  let b, result = run_blame ~choice:`Hybrid ~n_cores:4 p in
  let tm = Blame.tm_regions b in
  Alcotest.(check bool) "tm history recorded" true (tm <> []);
  List.iter
    (fun (region, begins, commits, aborts) ->
      Alcotest.(check bool)
        (region ^ ": commits+aborts <= begins")
        true
        (commits + aborts <= begins && begins > 0))
    tm;
  let wait = Blame.wait_matrix b in
  let msgs = Blame.msgs_matrix b in
  Array.iteri
    (fun c row ->
      Alcotest.(check int) "no self-wait" 0 wait.(c).(c);
      Array.iter
        (fun cycles ->
          Alcotest.(check bool) "wait bounded by run" true
            (cycles >= 0 && cycles <= result.Machine.cycles))
        row)
    wait;
  let sent = Array.fold_left (Array.fold_left ( + )) 0 msgs in
  Alcotest.(check bool) "messages observed" true (sent > 0)

(* A bulk-credited fast-forward window must land in exactly the intervals
   per-cycle stepping records: kind, blamed core, region, mode, redo and
   span of every interval, on every core. *)
let test_blame_fast_forward_invariant () =
  let render (iv : Blame.interval) =
    Printf.sprintf "%s blame=%d region=%d mode=%d redo=%b [%d..%d]"
      (Blame.kind_label iv.Blame.iv_kind)
      iv.Blame.iv_blame iv.Blame.iv_region iv.Blame.iv_mode iv.Blame.iv_redo
      iv.Blame.iv_from iv.Blame.iv_to
  in
  List.iter
    (fun name ->
      let p = (Suite.by_name name).Suite.build ~scale:0.25 () in
      let intervals ~fast_forward =
        let tweak c = { c with Config.fast_forward } in
        let b, _ = run_blame ~tweak ~choice:`Hybrid ~n_cores:4 p in
        List.init 4 (fun core ->
            Array.to_list (Array.map render (Blame.intervals b core)))
      in
      let slow = intervals ~fast_forward:false in
      let fast = intervals ~fast_forward:true in
      List.iteri
        (fun core slow_ivs ->
          Alcotest.(check (list string))
            (Printf.sprintf "%s core %d intervals" name core)
            slow_ivs (List.nth fast core))
        slow)
    [ "cjpeg"; "164.gzip" ]

(* Probes compose: a region profile and a blame recorder on one machine
   each see every core-cycle, so the profile still totals n_cores x cycles
   and the critical path still spans the whole run. *)
let test_probes_compose () =
  let p = Suite.micro_gsm_llp ~scale:0.5 () in
  let machine = Config.default ~n_cores:2 in
  let compiled = Driver.compile ~machine ~choice:`Llp p in
  let m = Machine.create machine compiled.Driver.executable in
  let rp = Region_profile.attach m compiled in
  let b = Blame.attach m compiled in
  let result = Machine.run m in
  Alcotest.(check int) "profile attributes every core-cycle"
    (2 * result.Machine.cycles)
    (Region_profile.total_cycles rp);
  Alcotest.(check int) "critical path = cycles" result.Machine.cycles
    (Critpath.length (Critpath.compute b))

let () =
  Alcotest.run "obs"
    [
      ( "accounting",
        [
          Alcotest.test_case "per-core invariant" `Quick test_per_core_invariant;
          Alcotest.test_case "region attribution reconciles" `Quick
            test_region_attribution_reconciles;
          Alcotest.test_case "probes compose" `Quick test_probes_compose;
        ] );
      ( "export",
        [
          Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "chrome trace" `Quick test_chrome_trace_export;
          Alcotest.test_case "metrics snapshot and delta" `Quick
            test_metrics_snapshot_and_delta;
          Alcotest.test_case "metrics schema" `Quick test_metrics_schema;
          Alcotest.test_case "sampler" `Quick test_sampler;
          Alcotest.test_case "sampler fast-forward invariant" `Quick
            test_sampler_fast_forward_invariant;
        ] );
      ( "causal",
        [
          Alcotest.test_case "critical path reconciles" `Quick
            test_critpath_reconciles;
          Alcotest.test_case "serial path stays on one core" `Quick
            test_serial_path_one_core;
          Alcotest.test_case "what-if agrees with rerun" `Quick
            test_whatif_agrees_with_rerun;
          Alcotest.test_case "blame report json fields" `Quick
            test_blame_report_json_fields;
          Alcotest.test_case "blame side tables" `Quick test_blame_side_tables;
          Alcotest.test_case "blame fast-forward invariant" `Quick
            test_blame_fast_forward_invariant;
        ] );
    ]
