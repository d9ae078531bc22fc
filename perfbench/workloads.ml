(* The three workloads. Each op has two implementations: [run] calls the
   library entry point a user calls, [traced] calls the rebuilt path in
   {!Layers} under spans. Both return a [result] whose [key] holds every
   value that must repeat exactly; the benchmark compares keys across
   passes and between the two implementations. *)

module Run = Voltron.Run
module Suite = Voltron_workloads.Suite
module Profile = Voltron_analysis.Profile
module Config = Voltron_machine.Config
module Machine = Voltron_machine.Machine
module Driver = Voltron_compiler.Driver
module Coherence = Voltron_mem.Coherence
module Rng = Voltron_util.Rng
module Gen = Voltron_gen.Gen
module Frontend = Voltron_lang.Frontend

type result = {
  ok : bool;
  detail : string;  (** why the op failed; "" when it passed *)
  cycles : int;  (** N-core simulated cycles of a verified run, else 0 *)
  base : int;  (** 1-core sequential baseline cycles, 0 when not taken *)
  counts : int array;  (** {!Layers.counter_names}, empty when not simulated *)
  key : string;
}

let failed detail =
  { ok = false; detail; cycles = 0; base = 0; counts = [||]; key = detail }

(* Every failure is an op result, never an escape: an exception anywhere in
   the op (such as a raw [Failure] out of the machine) fails that op only. *)
let guard f = try f () with e -> failed ("exception: " ^ Printexc.to_string e)

let first_line s =
  match String.index_opt s '\n' with Some i -> String.sub s 0 i | None -> s

let simulated ~base ~outcome ~cycles ~verified ~counts =
  let detail =
    if outcome <> Run.Completed then first_line (Run.outcome_to_string outcome)
    else if not verified then "memory image differs from the reference interpreter"
    else ""
  in
  {
    ok = verified;
    detail;
    cycles = (if verified then cycles else 0);
    base;
    counts;
    key =
      Printf.sprintf "%s cycles=%d base=%d counters=%s" detail cycles base
        (String.concat "," (Array.to_list (Array.map string_of_int counts)));
  }

let of_measurement ~base (m : Run.measurement) =
  simulated ~base ~outcome:m.Run.outcome ~cycles:m.Run.cycles ~verified:m.Run.verified
    ~counts:(Layers.counters m.Run.stats m.Run.coh_stats m.Run.net_stats)

let of_measured ~base (m : Layers.measured) =
  simulated ~base ~outcome:m.Layers.outcome ~cycles:m.Layers.cycles
    ~verified:m.Layers.verified ~counts:m.Layers.counts

let diff_result ~runs ~warnings ~classes ~detail =
  {
    ok = classes = [];
    detail;
    cycles = 0;
    base = 0;
    counts = [||];
    key =
      Printf.sprintf "runs=%d warnings=%d divergences=%s" runs warnings
        (String.concat "," classes);
  }

type op = { label : string; run : unit -> result; traced : Layers.t -> result }

type prepared = {
  ops : op array;
  model : op array;
      (** run once, untimed, after the timed passes: the fuzz programs'
          simulated cycles and speedup, which [Run.differential] does not
          return *)
  reference : (unit -> int) option;
      (** the N-core cycle total an independent path gives for one pass *)
}

type t = {
  name : string;
  nominal_pass_s : float;
      (** host seconds one pass takes on a 2-core x86-64 host; a run makes
          [seconds / nominal_pass_s] passes (at least one), so the sample
          count, and with it the tail percentile, is fixed for a given
          [--seconds] *)
  setup : Spans.t option -> prepared;
}

let span spans name f =
  match spans with None -> f () | Some s -> Spans.with_span s name f

(* What [voltron_sim run] does for one program: profile, 1-core
   baseline, 4-core hybrid run with the checker on, verify. *)
let cli_run p =
  let profile = Profile.collect p in
  let base = Run.baseline_cycles ~profile p in
  of_measurement ~base (Run.run ~profile ~n_cores:4 p)

let cli_run_traced probe p =
  let profile = Layers.span probe "profile" (fun () -> Profile.collect p) in
  let base = Layers.baseline probe ~profile p in
  of_measured ~base
    (Layers.run probe ~profile ~config:(Config.default ~n_cores:4) ~choice:`Hybrid p)

let cli_op (label, p) =
  { label; run = (fun () -> cli_run p); traced = (fun probe -> cli_run_traced probe p) }

(* The sum [bench perf] prints for the same programs: 4-core hybrid,
   checker off, profile taken inside the compile. *)
let bench_perf_total programs () =
  let machine = Config.default ~n_cores:4 in
  List.fold_left
    (fun acc (_, p) ->
      let compiled = Driver.compile ~machine ~choice:`Hybrid ~check:false p in
      let m = Machine.create machine compiled.Driver.executable in
      acc + (Machine.run m).Machine.cycles)
    0 programs

let suite_programs () =
  List.map (fun (b : Suite.benchmark) -> (b.Suite.bench_name, b.Suite.build ())) Suite.all

(* suite-run: one op per suite benchmark at scale 1, each what
   [voltron_sim run] does. The interpreter, the baseline and the 4-core
   simulation carry it. *)
let suite_run =
  {
    name = "suite-run";
    nominal_pass_s = 4.2;
    setup =
      (fun _ ->
        let programs = suite_programs () in
        {
          ops = Array.of_list (List.map cli_op programs);
          model = [||];
          reference = Some (bench_perf_total programs);
        });
  }

(* fuzz-diff: the fuzz-campaign cell set [bench]'s fuzz throughput times
   (campaign seed 7, programs 0..31; program k is
   [voltron_sim fuzz --seed 7 --index k]) times the default strategy x
   core-count matrix, one [Run.differential] cell per op. Small programs:
   compile, select and check weigh, the interpreter barely. The programs
   do not depend on the run's seed, which only orders the ops: the work in
   48 random programs varies from seed to seed by more than any bound
   this benchmark could hold. *)
let fuzz_campaign_seed = 7
let fuzz_programs = 32

let fuzz_setup spans =
  let seed = fuzz_campaign_seed in
  let rng = Rng.create seed in
  let programs =
    List.init fuzz_programs (fun k ->
        let label = Printf.sprintf "fuzz --seed %d --index %d" seed k in
        let hir =
          try
            let s = Rng.next (Rng.split rng k) in
            let ast = span spans "gen" (fun () -> Gen.program ~seed:s ()) in
            let src = span spans "gen" (fun () -> Gen.render ast) in
            Ok
              (span spans "frontend" (fun () ->
                   Frontend.parse_string ~name:ast.Voltron_lang.Ast.prog_name src))
          with e -> Error ("exception: " ^ Printexc.to_string e)
        in
        (label, hir))
  in
  let cell (label, hir) cores strategy =
    let label = Printf.sprintf "%s %s/%d-core" label (Run.choice_name strategy) cores in
    let with_program f = match hir with Error d -> failed d | Ok p -> f p in
    {
      label;
      run =
        (fun () ->
          with_program (fun p ->
              let d =
                Run.differential ~jobs:1 ~strategies:[ strategy ] ~cores:[ cores ] p
              in
              diff_result ~runs:d.Run.diff_runs ~warnings:d.Run.diff_warnings
                ~classes:(List.map Run.divergence_class d.Run.diff_divergences)
                ~detail:
                  (match d.Run.diff_divergences with
                  | [] -> ""
                  | dv :: _ -> first_line (Run.divergence_to_string dv))));
      traced =
        (fun probe ->
          with_program (fun p ->
              let runs, warnings, classes = Layers.diff_cell probe ~strategy ~cores p in
              diff_result ~runs ~warnings ~classes ~detail:(String.concat "," classes)));
    }
  in
  let ops =
    List.concat_map
      (fun prog ->
        List.concat_map
          (fun cores -> List.map (cell prog cores) Run.default_strategies)
          Run.default_cores)
      programs
  in
  let model =
    List.map
      (fun (label, hir) ->
        let label = label ^ " hybrid/4-core model" in
        match hir with
        | Error d -> { label; run = (fun () -> failed d); traced = (fun _ -> failed d) }
        | Ok p -> cli_op (label, p))
      programs
  in
  { ops = Array.of_list ops; model = Array.of_list model; reference = None }

let fuzz_diff = { name = "fuzz-diff"; nominal_pass_s = 10.5; setup = fuzz_setup }

(* many-core: every suite benchmark on 16 cores under each coherence
   backend. The machine is most of the op; coherence and network work grow
   with the core count. *)
let many_core_setup _ =
  let ops =
    List.concat_map
      (fun (name, p) ->
        let profile = Profile.collect p in
        let base =
          try Ok (Run.baseline_cycles ~profile p)
          with e -> Error ("exception: " ^ Printexc.to_string e)
        in
        List.map
          (fun proto ->
            let with_base f = match base with Error d -> failed d | Ok base -> f base in
            {
              label = Printf.sprintf "%s %s/16-core" name (Coherence.protocol_name proto);
              run =
                (fun () ->
                  with_base (fun base ->
                      of_measurement ~base
                        (Run.run ~profile ~tweak:(Config.with_coherence proto)
                           ~n_cores:16 p)));
              traced =
                (fun probe ->
                  with_base (fun base ->
                      of_measured ~base
                        (Layers.run probe ~profile ~choice:`Hybrid p
                           ~config:
                             (Config.with_coherence proto (Config.default ~n_cores:16)))));
            })
          Run.default_coherence)
      (suite_programs ())
  in
  { ops = Array.of_list ops; model = [||]; reference = None }

let many_core = { name = "many-core"; nominal_pass_s = 23.; setup = many_core_setup }

let all = [ suite_run; fuzz_diff; many_core ]
