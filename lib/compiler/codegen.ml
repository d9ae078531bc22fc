module Inst = Voltron_isa.Inst
module Image = Voltron_isa.Image
module Program = Voltron_isa.Program
module Config = Voltron_machine.Config
module Hir = Voltron_ir.Hir
module Layout = Voltron_ir.Layout
module Lower = Voltron_ir.Lower
module Cfg = Voltron_ir.Cfg
module Memdep = Voltron_analysis.Memdep
module Depgraph = Voltron_analysis.Depgraph
module Doall_a = Voltron_analysis.Doall
module Check = Voltron_check.Check

type strategy =
  | Seq
  | Coupled_ilp
  | Strands of Voltron_analysis.Profile.t
  | Dswp of dswp_plan
  | Doall of doall_plan

and dswp_plan = {
  ds_partition : Partition.t;
  ds_speedup : float;
}

and doall_plan = {
  dp_prefix : Hir.stmt list;
  dp_loop : Hir.for_loop;
  dp_suffix : Hir.stmt list;
  dp_accumulators : Doall_a.accumulator list;
  dp_speculative : bool;
}

type region_extent = {
  re_name : string;
  re_ranges : (int * int) array;
      (** per core: the half-open bundle-address range [lo, hi) the region
          occupies in that core's image *)
}

type t = {
  machine : Config.t;
  program : Hir.program;
  regions : Regions.t;  (** shared: read, never written *)
  mutable next_region : int;  (** program-order index of the next region *)
  lay : Layout.t;  (** this compile's copy: DOALL scratch lands here *)
  lctx : Lower.ctx;  (** this compile's glue names, after every region's *)
  mutable next_sid : int;  (** synthesised HIR sites, above the program's *)
  builders : Image.builder array;
  mutable infos : Check.region_info list;  (** reverse emission order *)
  mutable extents : region_extent list;  (** reverse emission order *)
}

let create ?regions machine (program : Hir.program) =
  let regions =
    match regions with Some rs -> rs | None -> Regions.of_program program
  in
  let max_sid = ref 0 in
  List.iter
    (fun (r : Hir.region) ->
      Hir.iter_stmts (fun s -> max_sid := max !max_sid s.Hir.sid) r.Hir.stmts)
    program.Hir.regions;
  {
    machine;
    program;
    regions;
    next_region = 0;
    lay = Layout.copy (Regions.layout regions);
    lctx = Regions.fresh_ctx regions;
    next_sid = !max_sid + 1;
    builders = Array.init machine.Config.n_cores (fun _ -> Image.builder ());
    infos = [];
    extents = [];
  }

let check_infos t = List.rev t.infos

let region_extents t = List.rev t.extents

(* Summarise a partitioned region for the static checker while the
   dependence analysis is still in scope: every memory operation with its
   assigned core, plus an aliasing oracle keyed by dependence-graph index.
   The checker uses this to re-verify the partitioners' contract that
   possibly-dependent memory operations never straddle cores in decoupled
   mode (paper §3.3). *)
let record_region_info t ~name ~mode ~(partition : Partition.t) ~memdep
    ~(dg : Depgraph.t) =
  let accesses =
    Array.to_list
      (Array.mapi
         (fun i (op : Cfg.lop) ->
           if Memdep.is_mem memdep op then
             Some
               {
                 Check.ma_id = i;
                 ma_core = partition.Partition.core_of.(i);
                 ma_write = Memdep.is_write memdep op;
                 ma_text = Format.asprintf "%a" Inst.pp op.Cfg.inst;
               }
           else None)
         dg.Depgraph.ops)
    |> List.filter_map Fun.id
  in
  t.infos <-
    {
      Check.ri_name = name;
      ri_decoupled = (mode = Inst.Decoupled);
      ri_accesses = accesses;
      ri_may_alias =
        (fun i j ->
          Memdep.ever_alias memdep dg.Depgraph.ops.(i) dg.Depgraph.ops.(j));
    }
    :: t.infos

let check_register_closed ~name stmts =
  let defs = Hashtbl.create 64 in
  List.iter (fun v -> Hashtbl.replace defs v ()) (Hir.defined_vregs stmts);
  let free = List.filter (fun v -> not (Hashtbl.mem defs v)) (Hir.used_vregs stmts) in
  if free <> [] then
    invalid_arg
      (Printf.sprintf
         "Codegen: region %s reads registers it never defines (v%s); regions \
          must be register-closed — pass values between regions through memory"
         name
         (String.concat ", v" (List.map string_of_int free)))

(* Emit a scheduled region's blocks into an image builder. *)
let emit_blocks t core (cfg : Cfg.t) (code : Voltron_isa.Bundle.t list array) =
  Array.iteri
    (fun bi (block : Cfg.block) ->
      Image.place_label t.builders.(core) block.Cfg.b_label;
      Image.emit_all t.builders.(core) code.(bi))
    cfg.Cfg.blocks

let emit_one t core bundle = Image.emit t.builders.(core) bundle

(* A statement list codegen synthesised (DOALL fragments), analysed under
   this compile's glue names. *)
let fragment t stmts = Regions.analyse t.lctx stmts

(* Schedule an analysed region entirely onto one core and emit it. *)
let emit_solo t core { Regions.cfg; dg; _ } =
  let partition =
    {
      Partition.core_of = Array.make (Array.length dg.Depgraph.ops) core;
      participants = [ core ];
    }
  in
  let sched =
    Sched.schedule_region ~machine:t.machine ~cfg ~dg ~partition
      ~mode:Inst.Decoupled
  in
  emit_blocks t core cfg sched.Sched.block_code.(core)

(* Master side of the spawn glue: SPAWN worker [w] at a fresh entry label,
   returned for the caller to place in [w]'s image. *)
let spawn t ~name w =
  let entry = Lower.fresh_label t.lctx (Printf.sprintf "%s_w%d" name w) in
  emit_one t 0 [ Inst.Spawn { target = w; entry } ];
  entry

(* Join: each worker reports completion through the queue network. *)
let join t workers =
  List.iter
    (fun w ->
      let sink = Lower.fresh_vreg t.lctx in
      emit_one t 0 [ Inst.Recv { sender = w; dst = sink; kind = Inst.Rv_sync } ])
    workers

(* --- Generic parallel region (ILP / strands / DSWP) ----------------------- *)

let emit_parallel t ~name { Regions.cfg; memdep; dg; _ } strategy =
  let n_cores = t.machine.Config.n_cores in
  let partition, mode =
    match strategy with
    | Coupled_ilp ->
      (* Coupled execution is restricted to groups of four cores (paper
         §3.2: the 1-bit stall bus cannot span more within a cycle);
         extra cores idle through the region in lock-step. *)
      ( Partition.bug ~n_cores:(min 4 n_cores) ~comm_latency:1 ~dg ~cfg,
        Inst.Coupled )
    | Strands profile ->
      ( Partition.ebug ~n_cores ~comm_latency:3 ~dg ~cfg ~memdep ~profile,
        Inst.Decoupled )
    | Dswp { ds_partition = p; _ } ->
      let covers = Array.length p.Partition.core_of and n_ops = Array.length dg.Depgraph.ops in
      if covers <> n_ops then
        invalid_arg
          (Printf.sprintf
             "Codegen: region %s's DSWP partition covers %d ops, its analysis has %d" name
             covers n_ops);
      (p, Inst.Decoupled)
    | Seq | Doall _ -> invalid_arg "emit_parallel: not a parallel strategy"
  in
  if List.length partition.Partition.participants <= 1 then
    (* The partitioner kept everything on the master: plain sequential. *)
    let sched =
      Sched.schedule_region ~machine:t.machine ~cfg ~dg ~partition
        ~mode:Inst.Decoupled
    in
    emit_blocks t 0 cfg sched.Sched.block_code.(0)
  else begin
    record_region_info t ~name ~mode ~partition ~memdep ~dg;
    let sched = Sched.schedule_region ~machine:t.machine ~cfg ~dg ~partition ~mode in
    let participants = sched.Sched.participants in
    let workers = List.filter (fun c -> c <> 0) participants in
    let coupled = mode = Inst.Coupled in
    (* Worker sides are emitted in full here. *)
    List.iter (fun w -> Image.place_label t.builders.(w) (spawn t ~name w)) workers;
    if coupled then emit_one t 0 [ Inst.Mode_switch Inst.Coupled ];
    List.iter
      (fun w -> if coupled then emit_one t w [ Inst.Mode_switch Inst.Coupled ])
      workers;
    emit_blocks t 0 cfg sched.Sched.block_code.(0);
    List.iter (fun w -> emit_blocks t w cfg sched.Sched.block_code.(w)) workers;
    if coupled then begin
      emit_one t 0 [ Inst.Mode_switch Inst.Decoupled ];
      List.iter (fun w -> emit_one t w [ Inst.Mode_switch Inst.Decoupled ]) workers
    end
    else begin
      join t workers;
      List.iter
        (fun w -> emit_one t w [ Inst.Send { target = 0; src = Inst.Imm 1 } ])
        workers
    end;
    List.iter (fun w -> emit_one t w [ Inst.Sleep ]) workers
  end

(* --- DOALL region ---------------------------------------------------------- *)

(* A compiler-synthesised statement (chunk bounds, accumulator resets,
   loop-variable fix-ups), its site id above the program's so the
   analysis tables never collide. *)
let synth t node =
  let sid = t.next_sid in
  t.next_sid <- sid + 1;
  { Hir.sid; node }

(* Chunk-bound synthesis for core [k] of [n]: iteration count
   N = max(0, (limit - init + step - 1) / step); core k runs iterations
   [k*N/n, (k+1)*N/n), i.e. var in [init + step*lo, init + step*hi). *)
let chunk_bounds t (loop : Hir.for_loop) ~k ~n =
  let stmts = ref [] in
  let bin op a b =
    let v = Lower.fresh_vreg t.lctx in
    stmts := synth t (Hir.Assign (v, Hir.Alu (op, a, b))) :: !stmts;
    Hir.Reg v
  in
  let step = loop.Hir.step in
  let d = bin Inst.Sub loop.Hir.limit loop.Hir.init in
  let n0 = bin Inst.Div (bin Inst.Add d (Hir.Imm (step - 1))) (Hir.Imm step) in
  let total = bin Inst.Max n0 (Hir.Imm 0) in
  let lo = bin Inst.Div (bin Inst.Mul total (Hir.Imm k)) (Hir.Imm n) in
  let hi = bin Inst.Div (bin Inst.Mul total (Hir.Imm (k + 1))) (Hir.Imm n) in
  let from_ = bin Inst.Add loop.Hir.init (bin Inst.Mul lo (Hir.Imm step)) in
  let to_ = bin Inst.Add loop.Hir.init (bin Inst.Mul hi (Hir.Imm step)) in
  (List.rev !stmts, from_, to_, total)

let emit_doall t ~name plan =
  let n = t.machine.Config.n_cores in
  let loop = plan.dp_loop in
  let accs = plan.dp_accumulators in
  let n_accs = List.length accs in
  let scratch =
    if n_accs > 0 then Layout.scratch_alloc t.lay ((n - 1) * n_accs) else 0
  in
  let chunk_for from_ to_ =
    synth t (Hir.For { loop with Hir.init = from_; limit = to_ })
  in
  let tm_wrap core body =
    if plan.dp_speculative then begin
      emit_one t core [ Inst.Tm_begin ];
      body ();
      emit_one t core [ Inst.Tm_commit ]
    end
    else body ()
  in
  (* All-core TM rounds require every core to transact, even those without
     work — the empty-chunk loops below keep that invariant. *)
  let workers = List.init (n - 1) (fun i -> i + 1) in
  (* Master: spawn first so workers overlap the prefix. *)
  let entries = List.map (fun w -> (w, spawn t ~name w)) workers in
  (* Master fragment A: prefix + bounds. *)
  let bounds0, from0, to0, total0 = chunk_bounds t loop ~k:0 ~n in
  emit_solo t 0 (fragment t (plan.dp_prefix @ bounds0));
  let master_total =
    match total0 with Hir.Reg r -> r | Hir.Imm _ -> assert false
  in
  tm_wrap 0 (fun () -> emit_solo t 0 (fragment t [ chunk_for from0 to0 ]));
  join t workers;
  (* Accumulator reduction: master partial + committed worker partials. *)
  List.iteri
    (fun j (acc : Doall_a.accumulator) ->
      List.iteri
        (fun wi _ ->
          let tmp = Lower.fresh_vreg t.lctx in
          let addr = scratch + (wi * n_accs) + j in
          emit_one t 0 [ Inst.Load { dst = tmp; base = Inst.Imm addr; offset = Inst.Imm 0 } ];
          emit_one t 0
            [
              Inst.Alu
                {
                  op = Inst.Add;
                  dst = acc.Doall_a.acc_vreg;
                  src1 = Inst.Reg acc.Doall_a.acc_vreg;
                  src2 = Inst.Reg tmp;
                };
            ])
        workers)
    accs;
  (* Loop variable fix-up: after a serial run, var = init + step * N. *)
  let off = Lower.fresh_vreg t.lctx in
  let fix1 =
    synth t (Hir.Assign (off, Hir.Alu (Inst.Mul, Hir.Reg master_total, Hir.Imm loop.Hir.step)))
  in
  let fix2 =
    synth t (Hir.Assign (loop.Hir.var, Hir.Alu (Inst.Add, loop.Hir.init, Hir.Reg off)))
  in
  emit_solo t 0 (fragment t ([ fix1; fix2 ] @ plan.dp_suffix));
  (* Workers. *)
  List.iteri
    (fun wi (w, entry) ->
      Image.place_label t.builders.(w) entry;
      let bounds, from_, to_, _ = chunk_bounds t loop ~k:w ~n in
      let resets =
        List.map
          (fun (acc : Doall_a.accumulator) ->
            synth t (Hir.Assign (acc.Doall_a.acc_vreg, Hir.Operand (Hir.Imm 0))))
          accs
      in
      emit_solo t w (fragment t (plan.dp_prefix @ bounds @ resets));
      tm_wrap w (fun () ->
          emit_solo t w (fragment t [ chunk_for from_ to_ ]);
          (* Partials are stored inside the transaction so the commit
             publishes them with the chunk. *)
          List.iteri
            (fun j (acc : Doall_a.accumulator) ->
              let addr = scratch + (wi * n_accs) + j in
              emit_one t w
                [
                  Inst.Store
                    { base = Inst.Imm addr; offset = Inst.Imm 0; src = Inst.Reg acc.Doall_a.acc_vreg };
                ])
            accs);
      emit_one t w [ Inst.Send { target = 0; src = Inst.Imm 1 } ];
      emit_one t w [ Inst.Sleep ])
    entries

(* --- Public API ------------------------------------------------------------ *)

let emit_region t ~name stmts strategy =
  check_register_closed ~name stmts;
  (* Plans emit the program's regions in order, so the shared analysis of
     the next one is this region's; a hand-made region is analysed here. *)
  let shared =
    match Regions.region t.regions t.next_region with
    | Some r when r.Regions.stmts == stmts ->
      t.next_region <- t.next_region + 1;
      Some r
    | Some _ | None -> None
  in
  let region () =
    match shared with Some r -> r | None -> fragment t stmts
  in
  (* Every bundle the region adds — master glue, spawns, worker bodies,
     joins — lands between these two snapshots, so the extent is exact
     per core (regions are contiguous in emission order). *)
  let lo = Array.map Image.next_addr t.builders in
  let parallel = t.machine.Config.n_cores > 1 in
  (match strategy with
  | Doall plan when parallel -> emit_doall t ~name plan
  | (Coupled_ilp | Strands _ | Dswp _) when parallel ->
    emit_parallel t ~name (region ()) strategy
  | Seq | Coupled_ilp | Strands _ | Dswp _ | Doall _ -> emit_solo t 0 (region ()));
  let ranges =
    Array.mapi (fun c lo_c -> (lo_c, Image.next_addr t.builders.(c))) lo
  in
  t.extents <- { re_name = name; re_ranges = ranges } :: t.extents

let finalize t =
  emit_one t 0 [ Inst.Halt ];
  let images = Array.map Image.finish t.builders in
  Program.make ~images ~mem_size:(max 1 (Layout.mem_size t.lay))
    ~mem_init:(Layout.mem_init t.lay t.program)
