(* The traced run. [Run.run], [Driver.compile] and one [Run.differential]
   cell are rebuilt here from their public pieces, each call wrapped in a
   span named after its layer, so the benchmark can attribute host time
   without instrumenting the program. The rebuilt paths must return exactly
   what the library paths return; the benchmark checks that op by op.

   Around every traced [Machine.run] the probe also counts run-loop
   iterations ([Machine.set_on_window], which keeps fast-forward on), takes
   the minor-heap allocation, and records the coherence access stream
   ([Coherence.set_monitor]) for replay through a fresh hierarchy. *)

module Config = Voltron_machine.Config
module Machine = Voltron_machine.Machine
module Stats = Voltron_machine.Stats
module Coherence = Voltron_mem.Coherence
module Memory = Voltron_mem.Memory
module Network = Voltron_net.Operand_network
module Interp = Voltron_ir.Interp
module Profile = Voltron_analysis.Profile
module Select = Voltron_compiler.Select
module Codegen = Voltron_compiler.Codegen
module Check = Voltron_check.Check
module Run = Voltron.Run

(* --- Modelled counters, summed over cores ---------------------------------- *)

let counter_names =
  [|
    "machine.busy_cycles";
    "machine.d_stall_cycles";
    "machine.recv_stall_cycles";
    "machine.sync_stall_cycles";
    "coherence.l1d_misses";
    "coherence.bus_wait_cycles";
    "coherence.dir_indirections";
    "operand_network.msgs";
    "operand_network.latency_cycles";
    "tm.conflicts";
  |]

let counters (st : Stats.t) (coh : Coherence.stats) (net : Network.stats) =
  let sum f = Array.fold_left (fun a c -> a + f c) 0 st.Stats.per_core in
  [|
    sum (fun c -> c.Stats.busy);
    sum (fun c -> c.Stats.d_stall);
    sum (fun c -> c.Stats.recv_data_stall + c.Stats.recv_pred_stall);
    sum (fun c -> c.Stats.sync_stall);
    coh.Coherence.l1d_misses;
    coh.Coherence.bus_wait_cycles;
    coh.Coherence.dir_indirections;
    net.Network.msgs_sent;
    net.Network.total_latency;
    st.Stats.tm_conflicts;
  |]

(* --- Coherence access streams ---------------------------------------------- *)

(* Three ints per access: [now lsl 8 lor core lsl 2 lor kind] (so at most
   64 cores), the word address and the completion cycle the machine saw. Kept off the OCaml
   heap so that recording does not add to the collector's work. *)
type buffer = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type stream = {
  s_cache : Coherence.config;
  s_cores : int;
  mutable buf : buffer;
  mutable len : int;
}

let buffer n = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n

let kind_code = function
  | Coherence.Ifetch -> 0
  | Coherence.Dload -> 1
  | Coherence.Dstore -> 2

let kinds = [| Coherence.Ifetch; Coherence.Dload; Coherence.Dstore |]

let record s ~now ~core kind addr completion =
  let cap = Bigarray.Array1.dim s.buf in
  if s.len + 3 > cap then begin
    let grown = buffer (max 3072 (2 * cap)) in
    Bigarray.Array1.blit s.buf (Bigarray.Array1.sub grown 0 cap);
    s.buf <- grown
  end;
  s.buf.{s.len} <- (now lsl 8) lor (core lsl 2) lor kind_code kind;
  s.buf.{s.len + 1} <- addr;
  s.buf.{s.len + 2} <- completion;
  s.len <- s.len + 3

let accesses s = s.len / 3

(* Replay a stream alone through a fresh hierarchy of [protocol]; returns
   the host seconds spent in [Coherence.access] and how many completions
   differ from the recorded ones (0 when replaying on the backend that
   recorded it). [Machine.create] issues core 0's first fetch before a
   monitor can attach, so the replay issues it too. *)
let replay s protocol =
  let h = Coherence.create { s.s_cache with Coherence.protocol } ~n_cores:s.s_cores in
  ignore (Coherence.access h ~now:0 ~core:0 Coherence.Ifetch 0);
  let mismatches = ref 0 in
  let t0 = Unix.gettimeofday () in
  let i = ref 0 in
  while !i < s.len do
    let w = s.buf.{!i} in
    let c =
      Coherence.access h ~now:(w lsr 8) ~core:((w lsr 2) land 63) kinds.(w land 3)
        s.buf.{!i + 1}
    in
    if c <> s.buf.{!i + 2} then incr mismatches;
    i := !i + 3
  done;
  (Unix.gettimeofday () -. t0, !mismatches)

(* --- The probe --------------------------------------------------------------- *)

type t = {
  spans : Spans.t;
  mutable iters : int;  (** run-loop iterations of traced machines *)
  mutable cycles : int;  (** their simulated cycles *)
  mutable core_cycles : int;
  mutable minor_words : float;
  mutable streams : stream list;  (** recorded since the last [take_streams] *)
  mutable spare : buffer list;
      (** buffers of replayed streams, reused: growing fresh ones page-faults
          on every new page and costs several times the recording itself *)
}

let create spans =
  {
    spans;
    iters = 0;
    cycles = 0;
    core_cycles = 0;
    minor_words = 0.;
    streams = [];
    spare = [];
  }

let span probe name f = Spans.with_span probe.spans name f

let take_streams probe =
  let s = List.rev probe.streams in
  probe.streams <- [];
  s

let recycle probe s = probe.spare <- s.buf :: probe.spare

let simulate probe (config : Config.t) exe =
  span probe "machine" (fun () ->
      let m = Machine.create config exe in
      let buf =
        match probe.spare with
        | b :: rest ->
          probe.spare <- rest;
          b
        | [] -> buffer 0
      in
      let s =
        { s_cache = config.Config.cache; s_cores = config.Config.n_cores; buf; len = 0 }
      in
      Machine.set_on_window m (fun ~from:_ ~upto:_ -> probe.iters <- probe.iters + 1);
      Coherence.set_monitor (Machine.coherence m) (fun ~core ~completion kind addr ->
          record s ~now:(Machine.now m) ~core kind addr completion);
      let w0 = Gc.minor_words () in
      let r = Machine.run m in
      probe.minor_words <- probe.minor_words +. (Gc.minor_words () -. w0);
      probe.cycles <- probe.cycles + r.Machine.cycles;
      probe.core_cycles <- probe.core_cycles + (r.Machine.cycles * config.Config.n_cores);
      probe.streams <- s :: probe.streams;
      (m, r))

(* --- Driver.compile and Run.run, rebuilt ---------------------------------------- *)

type compiled = {
  exe : Voltron_isa.Program.t;
  footprint : int;
  oracle_sum : int;
  warnings : int;
}

let compile probe ~machine ~choice ?max_steps ~profile p =
  let oracle = span probe "interp" (fun () -> Interp.run ?max_steps p) in
  let footprint = Voltron_ir.Layout.mem_size oracle.Interp.layout in
  let plan = span probe "select" (fun () -> Select.plan ~machine ~profile choice p) in
  let cg, exe =
    span probe "codegen" (fun () ->
        let cg = Codegen.create machine p in
        List.iter
          (fun (r : Select.planned_region) ->
            Codegen.emit_region cg ~name:r.Select.pr_name r.Select.pr_stmts
              r.Select.pr_strategy)
          plan;
        (cg, Codegen.finalize cg))
  in
  let diags =
    span probe "check" (fun () ->
        Check.check_program ~infos:(Codegen.check_infos cg) machine exe)
  in
  if Check.has_errors diags then raise (Check.Failed diags);
  {
    exe;
    footprint;
    oracle_sum = Memory.checksum_prefix oracle.Interp.memory footprint;
    warnings = List.length diags;
  }

let outcome_of_machine = function
  | Machine.Finished -> Run.Completed
  | Machine.Out_of_cycles -> Run.Cycle_capped
  | Machine.Deadlock d -> Run.Deadlocked d
  | Machine.Fault_limit d -> Run.Fault_limited d
  | Machine.Stopped d -> Run.Sanity_stopped d

type measured = {
  outcome : Run.run_outcome;
  cycles : int;
  verified : bool;
  counts : int array;
}

let run probe ~profile ~(config : Config.t) ~choice p =
  let c = compile probe ~machine:config ~choice ~profile p in
  let m, r = simulate probe config c.exe in
  let outcome = outcome_of_machine r.Machine.outcome in
  {
    outcome;
    cycles = r.Machine.cycles;
    verified =
      outcome = Run.Completed
      && Memory.checksum_prefix (Machine.memory m) c.footprint = c.oracle_sum;
    counts =
      counters (Machine.stats m)
        (Coherence.total_stats (Machine.coherence m))
        (Network.stats (Machine.network m));
  }

(* [Run.baseline_cycles], rebuilt: same failure message. *)
let baseline probe ~profile p =
  let m = run probe ~profile ~config:(Config.default ~n_cores:1) ~choice:`Seq p in
  if m.outcome <> Run.Completed then
    failwith ("baseline run " ^ Run.outcome_to_string m.outcome);
  m.cycles

(* --- One Run.differential cell, rebuilt ------------------------------------------ *)

(* The limits [Run.differential] applies by default. *)
let diff_max_steps = 2_000_000
let diff_max_cycles = 4_000_000

(* Simulations run, checker warnings and the failure class of every
   divergence, judged the way [Run.differential] judges them. *)
let diff_cell probe ~strategy ~cores p =
  let config =
    let c = Config.default ~n_cores:cores in
    { c with Config.max_cycles = min c.Config.max_cycles diff_max_cycles }
  in
  let max_steps = diff_max_steps in
  let profile = span probe "profile" (fun () -> Profile.collect ~max_steps p) in
  match compile probe ~machine:config ~choice:strategy ~max_steps ~profile p with
  | exception Check.Failed _ -> (0, 0, [ "checker" ])
  | c ->
    let classes =
      List.concat_map
        (fun proto ->
          let config = Config.with_coherence proto config in
          let sim ff =
            let m, r = simulate probe { config with Config.fast_forward = ff } c.exe in
            (r.Machine.outcome, r.Machine.cycles,
             Memory.checksum_prefix (Machine.memory m) c.footprint)
          in
          let o_on, cyc_on, sum_on = sim true in
          let o_off, cyc_off, sum_off = sim false in
          let judge o expected sum =
            match o with
            | Machine.Finished -> if sum <> expected then [ "checksum" ] else []
            | _ -> [ "non-completion" ]
          in
          judge o_on c.oracle_sum sum_on
          @ judge o_off sum_on sum_off
          @
          if o_on = Machine.Finished && o_off = Machine.Finished && cyc_on <> cyc_off
          then [ "ff-cycles" ]
          else [])
        Run.default_coherence
    in
    (2 * List.length Run.default_coherence, c.warnings, classes)
