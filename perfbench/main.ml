(* The repository's benchmark: one workload per invocation, closed loop,
   one client, one domain.

     bash perfbench/run.sh \
       --workload suite-run|fuzz-diff|many-core --seed N --seconds S --trace 0|1

   With --trace 0 it reports the end-to-end metrics of BENCHMARK.json; with
   --trace 1 it runs every op untraced and then traced and reports the
   per-layer metrics. Human-readable lines come first; the last line of
   standard output is one JSON object. See perfbench/README.md. *)

open Perfbench
module W = Workloads
module Rng = Voltron_util.Rng
module Coherence = Voltron_mem.Coherence
module Run = Voltron.Run

let now = Unix.gettimeofday

(* Set-up is repeated and its median reported: a set-up of a few
   milliseconds is otherwise at the mercy of one page fault. The count is
   fixed because every set-up ends with a full major collection, and the
   number of those before the timed section changes how far the heap
   grows in it. *)
let setup_reps = 5

(* Largest share of the traced ops' harness time that may lie outside
   their root spans before the trace is judged incomplete. *)
let span_tolerance = 0.01

let usage =
  "main.exe --workload suite-run|fuzz-diff|many-core --seed N --seconds S --trace 0|1"

let parse_args () =
  let workload = ref "" and seed = ref None in
  let seconds = ref None and trace = ref None in
  let set r v = r := Some v in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " workload name");
      ("--seed", Arg.Int (set seed), " input seed");
      ("--seconds", Arg.Int (set seconds), " measured seconds");
      ("--trace", Arg.Int (set trace), " 1 for the per-layer run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  match
    (List.find_opt (fun w -> w.W.name = !workload) W.all, !seed, !seconds, !trace)
  with
  | Some w, Some seed, Some seconds, Some ((0 | 1) as trace) when seconds > 0 ->
    (w, seed, seconds, trace = 1)
  | _ ->
    prerr_endline ("usage: " ^ usage);
    exit 2

let shuffled ~seed ~pass n =
  let rng = Rng.split (Rng.create seed) pass in
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

type pass = {
  results : W.result array;  (** by op index *)
  latency : float array;  (** by op index *)
  op_s : float;  (** sum of [latency] *)
  wall : float;
}

(* One pass over the ops in a seeded order, each op run once per leg, the
   legs back to back so that they see the same host. Returns one pass per
   leg; [wall] covers all legs. [after] runs between ops, outside their
   timing. *)
let run_pass ?(after = ignore) ~seed ~pass (ops : W.op array) legs =
  let n = Array.length ops in
  let bufs =
    List.map (fun _ -> (Array.make n (W.failed "not run"), Array.make n 0.)) legs
  in
  let t0 = now () in
  Array.iter
    (fun i ->
      List.iter2
        (fun leg (results, latency) ->
          let a = now () in
          let r = W.guard (fun () -> leg i ops.(i)) in
          latency.(i) <- now () -. a;
          results.(i) <- r)
        legs bufs;
      after ())
    (shuffled ~seed ~pass n);
  let wall = now () -. t0 in
  List.map
    (fun (results, latency) ->
      { results; latency; op_s = Array.fold_left ( +. ) 0. latency; wall })
    bufs

(* --- Checks ---------------------------------------------------------------- *)

let problems = ref []
let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt

(* Every pass of an op must give the same key as the first. *)
let check_repeats (ops : W.op array) what first passes =
  List.iter
    (fun p ->
      Array.iteri
        (fun i (r : W.result) ->
          let expected = first.results.(i).W.key in
          if r.W.key <> expected then
            problem "%s: %s gave %S, the first pass %S" ops.(i).W.label what r.W.key
              expected)
        p.results)
    passes

let check_reference (prepared : W.prepared) (first : pass) =
  match prepared.W.reference with
  | Some total when Array.for_all (fun r -> r.W.ok) first.results ->
    let expected = total () in
    let got = Array.fold_left (fun a r -> a + r.W.cycles) 0 first.results in
    if expected <> got then
      problem "N-core cycle total %d differs from bench perf's %d" got expected
  | _ -> ()

(* --- Metrics --------------------------------------------------------------- *)

type metric = { name : string; value : float; unit : string; note : string }

let m ?(note = "") name unit value = { name; value; unit; note }

let number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let ratio a b = if b = 0. then 0. else a /. b
let median_of f xs = Summary.median (Array.of_list (List.map f xs))

(* The verified runs of the modelled design. *)
let designs (results : W.result list) =
  List.filter (fun r -> r.W.ok && r.W.cycles > 0) results

let end_to_end ~setup ~passes ~model =
  let first = List.hd passes in
  let latencies = Array.concat (List.map (fun p -> p.latency) passes) in
  let designs = designs (Array.to_list first.results @ model) in
  let n = Array.length latencies in
  let tail =
    match Summary.tail latencies with
    | Some t -> t
    | None ->
      problem "only %d latency samples: no percentile has %d beyond it" n
        Summary.min_beyond;
      let top = Array.fold_left Float.max 0. latencies in
      { Summary.t_pct = 100.; t_value = top; t_beyond = 0; t_samples = n }
  in
  let heap = Gc.quick_stat () in
  [
    m "setup_s" "s" (Summary.median setup)
      ~note:(Printf.sprintf "median of %d set-ups" (Array.length setup));
    m "wall_s" "s" (median_of (fun p -> p.wall) passes)
      ~note:(Printf.sprintf "median of %d passes" (List.length passes));
    m "latency_p50_s" "s" (Summary.harrell_davis (Summary.sorted_copy latencies) 0.5)
      ~note:(Printf.sprintf "%d samples" n);
    m "latency_tail_s" "s" tail.Summary.t_value
      ~note:
        (Printf.sprintf "p%g of %d samples, %d beyond" tail.Summary.t_pct n
           tail.Summary.t_beyond);
    m "simulated_cycles" "cycles"
      (float_of_int (List.fold_left (fun a r -> a + r.W.cycles) 0 designs))
      ~note:(Printf.sprintf "%d verified N-core runs" (List.length designs));
    m "speedup_geomean" "x"
      (Summary.speedup_geomean
         (List.filter_map
            (fun r -> if r.W.base > 0 then Some (r.W.base, r.W.cycles) else None)
            designs))
      ~note:"1-core sequential / N-core cycles; model not validated on hardware";
    m "peak_heap_mb" "MB"
      (float_of_int (heap.Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6);
  ]

type replay = {
  mutable accesses : int;
  mutable own_s : float;  (** replay on the backend that recorded the stream *)
  mutable snoop_s : float;
  mutable directory_s : float;
  mutable mismatches : int;
}

let replay_streams probe rp streams =
  List.iter
    (fun (s : Layers.stream) ->
      rp.accesses <- rp.accesses + Layers.accesses s;
      List.iter
        (fun proto ->
          let dt, mismatches = Layers.replay s proto in
          (match proto with
          | Coherence.Snoop -> rp.snoop_s <- rp.snoop_s +. dt
          | Coherence.Directory -> rp.directory_s <- rp.directory_s +. dt);
          if proto = s.Layers.s_cache.Coherence.protocol then begin
            rp.own_s <- rp.own_s +. dt;
            rp.mismatches <- rp.mismatches + mismatches
          end)
        Run.default_coherence;
      Layers.recycle probe s)
    streams

(* Self times and counts are per traced pass, except the set-up layers
   [gen] and [frontend], traced in the one set-up. *)
let per_layer ~spans ~(probe : Layers.t) ~rp ~untraced ~traced ~model =
  let passes = float_of_int (List.length traced) in
  let per_pass x = x /. passes in
  let all = Spans.spans spans in
  let table = Spans.by_name all in
  let self_and_calls name = Option.value (Hashtbl.find_opt table name) ~default:(0., 0) in
  let self name = fst (self_and_calls name) in
  let selfs = Spans.self_times all in
  let root_s = ref 0. and self_sum = ref 0. in
  Array.iteri
    (fun i (s : Spans.span) ->
      if s.Spans.op >= 0 then begin
        self_sum := !self_sum +. selfs.(i);
        if s.Spans.parent < 0 then root_s := !root_s +. Spans.duration s
      end)
    all;
  let harness_s = List.fold_left (fun a p -> a +. p.op_s) 0. traced in
  let unspanned = ratio (harness_s -. !root_s) harness_s in
  if Float.abs (!self_sum -. !root_s) > 1e-6 *. !root_s then
    problem "span self times sum to %.6f s, op spans to %.6f s" !self_sum !root_s;
  if unspanned > span_tolerance then
    problem "%.2f%% of traced op time lies outside op spans (tolerance %g%%)"
      (100. *. unspanned) (100. *. span_tolerance);
  let counts = Array.make (Array.length Layers.counter_names) 0 in
  List.iter
    (fun r -> Array.iteri (fun i c -> counts.(i) <- counts.(i) + c) r.W.counts)
    (designs (Array.to_list (List.hd untraced).results @ model));
  let counter name =
    let rec find i = if Layers.counter_names.(i) = name then counts.(i) else find (i + 1) in
    find 0
  in
  let layer name =
    let once = name = "gen" || name = "frontend" in
    let self_s = if once then self name else per_pass (self name) in
    let calls = per_pass (float_of_int (snd (self_and_calls name))) in
    m (name ^ ".self_s") "s" self_s
    :: (if name = "profile" || name = "interp" then [ m (name ^ ".calls") "count" calls ]
        else [])
  in
  let accesses = float_of_int rp.accesses in
  let ns_per_access s = 1e9 *. ratio s accesses in
  List.concat_map layer
    [
      "profile"; "interp"; "select"; "codegen"; "check"; "machine"; "op"; "gen"; "frontend";
    ]
  @ [
      m "machine.ns_per_core_cycle" "ns"
        (1e9 *. ratio (self "machine") (float_of_int probe.Layers.core_cycles));
      m "machine.minor_words_per_cycle" "words"
        (ratio probe.Layers.minor_words (float_of_int probe.Layers.cycles))
        ~note:"test_perf's budget is 80";
      m "machine.loop_iters" "count" (per_pass (float_of_int probe.Layers.iters));
      m "machine.ff_cycle_share" "share"
        (1. -. ratio (float_of_int probe.Layers.iters) (float_of_int probe.Layers.cycles));
      m "trace.overhead_share" "share"
        (ratio (median_of (fun p -> p.op_s) traced) (median_of (fun p -> p.op_s) untraced)
        -. 1.)
        ~note:"traced vs untraced op time";
      m "trace.unspanned_share" "share" unspanned
        ~note:(Printf.sprintf "tolerance %g" span_tolerance);
    ]
  @ List.map
      (fun name ->
        m name
          (if String.ends_with ~suffix:"_cycles" name then "cycles" else "count")
          (float_of_int (counter name)))
      [
        "machine.busy_cycles"; "machine.d_stall_cycles"; "machine.recv_stall_cycles";
        "machine.sync_stall_cycles"; "coherence.l1d_misses"; "coherence.bus_wait_cycles";
        "coherence.dir_indirections"; "operand_network.msgs"; "tm.conflicts";
      ]
  @ [
      m "operand_network.avg_latency_cycles" "cycles"
        (ratio
           (float_of_int (counter "operand_network.latency_cycles"))
           (float_of_int (counter "operand_network.msgs")));
      m "coherence.accesses" "count" (per_pass accesses);
      m "coherence.ns_per_access" "ns" (ns_per_access rp.own_s)
        ~note:"replayed alone on the recording backend";
      m "coherence.snoop_ns_per_access" "ns" (ns_per_access rp.snoop_s);
      m "coherence.directory_ns_per_access" "ns" (ns_per_access rp.directory_s);
      m "coherence.machine_share" "share" (ratio rp.own_s (self "machine"))
        ~note:"replay time / traced machine self time";
      m "coherence.replay_mismatches" "count" (float_of_int rp.mismatches);
    ]

(* --- Output ---------------------------------------------------------------- *)

let failures results = List.filter (fun (_, r) -> not r.W.ok) results

let print_report (w : W.t) ~seed ~trace ~passes ~ops ~results metrics =
  Printf.printf "workload %s, seed %d, %d passes of %d ops%s\n" w.W.name seed passes
    (Array.length ops)
    (if trace then ", each op untraced then traced" else "");
  List.iter
    (fun x -> Printf.printf "  %-36s %18s %-6s %s\n" x.name (number x.value) x.unit x.note)
    metrics;
  Printf.printf "ops: %d attempted, %d failed\n" (List.length results)
    (List.length (failures results));
  List.iter
    (fun (label, r) -> Printf.printf "  FAILED %s: %s\n" label r.W.detail)
    (failures results);
  List.iter (fun p -> Printf.printf "  CHECK FAILED %s\n" p) (List.rev !problems)

let print_json ~results metrics =
  let failed = List.length (failures results) in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (!problems = [] && failed = 0)
    (List.length results) failed
    (String.concat ", "
       (List.map
          (fun x ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (number x.value)
              x.unit)
          metrics))

(* A digest of every op's key, by op index: no seed changes the op set, so
   it is equal across runs and seeds. *)
let digest (first : pass) =
  Digest.to_hex
    (Digest.string
       (String.concat "\n" (Array.to_list (Array.map (fun r -> r.W.key) first.results))))

let () =
  let w, seed, seconds, trace = parse_args () in
  let passes_of share =
    max 1 (int_of_float (Float.round (float_of_int seconds *. share /. w.W.nominal_pass_s)))
  in
  let labelled (ops : W.op array) (p : pass) =
    Array.to_list (Array.mapi (fun i r -> (ops.(i).W.label, r)) p.results)
  in
  let run_model (prepared : W.prepared) =
    Array.to_list
      (Array.map (fun (op : W.op) -> (op.W.label, W.guard op.W.run)) prepared.W.model)
  in
  if not trace then begin
    let rec set_up times =
      let t0 = now () in
      let p = w.W.setup None in
      Gc.full_major ();
      let times = (now () -. t0) :: times in
      if List.length times = setup_reps then (p, Array.of_list times) else set_up times
    in
    let prepared, setup = set_up [] in
    let ops = prepared.W.ops in
    let passes =
      List.init (passes_of 1.) (fun pass ->
          List.hd (run_pass ~seed ~pass ops [ (fun _ op -> op.W.run ()) ]))
    in
    let first = List.hd passes in
    check_repeats ops "a later pass" first (List.tl passes);
    check_reference prepared first;
    let model = run_model prepared in
    let results = List.concat_map (labelled ops) passes @ model in
    let metrics = end_to_end ~setup ~passes ~model:(List.map snd model) in
    print_report w ~seed ~trace ~passes:(List.length passes) ~ops ~results metrics;
    Printf.printf "pass walls (s): %s\n"
      (String.concat " " (List.map (fun p -> Printf.sprintf "%.4f" p.wall) passes));
    Printf.printf "determinism digest: %s\n" (digest first);
    print_json ~results metrics
  end
  else begin
    let spans = Spans.create () in
    let probe = Layers.create spans in
    let prepared = w.W.setup (Some spans) in
    Gc.full_major ();
    let ops = prepared.W.ops in
    let rp = { accesses = 0; own_s = 0.; snoop_s = 0.; directory_s = 0.; mismatches = 0 } in
    let paired =
      List.init (passes_of 0.5) (fun pass ->
          match
            run_pass ~seed ~pass ops
              ~after:(fun () -> replay_streams probe rp (Layers.take_streams probe))
              [
                (fun _ op -> op.W.run ());
                (fun i op ->
                  Spans.set_op spans i;
                  Spans.with_span spans "op" (fun () -> op.W.traced probe));
              ]
          with
          | [ u; t ] -> (u, t)
          | _ -> assert false)
    in
    Spans.set_op spans (-1);
    let untraced = List.map fst paired and traced = List.map snd paired in
    let first = List.hd untraced in
    check_repeats ops "a later untraced pass" first (List.tl untraced);
    check_repeats ops "the traced path" first traced;
    check_reference prepared first;
    let model = run_model prepared in
    let results = List.concat_map (labelled ops) (untraced @ traced) @ model in
    let model_results = List.map snd model in
    let metrics = per_layer ~spans ~probe ~rp ~untraced ~traced ~model:model_results in
    print_report w ~seed ~trace ~passes:(List.length paired) ~ops ~results metrics;
    let dir = Filename.concat "perfbench" "out" in
    (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
    let path = Filename.concat dir (Printf.sprintf "spans-%s-seed%d.tsv" w.W.name seed) in
    Spans.write_tsv path (Spans.spans spans);
    Printf.printf "spans written to %s\n" path;
    print_json ~results metrics
  end
