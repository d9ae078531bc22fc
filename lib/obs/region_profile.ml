module Stats = Voltron_machine.Stats
module Machine = Voltron_machine.Machine
module Inst = Voltron_isa.Inst
module Image = Voltron_isa.Image
module Program = Voltron_isa.Program
module Codegen = Voltron_compiler.Codegen
module Select = Voltron_compiler.Select
module Driver = Voltron_compiler.Driver
module Table = Voltron_util.Table

(* [counts.(region).(mode)] (mode 0 coupled, 1 decoupled) holds, summed
   over cores: busy, the stall kinds in [Stats.stall_kind_index] order,
   then idle. *)
type t = {
  names : string array;  (** one per region; last is ["<other>"] *)
  strategies : string array;
  counts : int array array array;
}

type row = {
  r_region : string;
  r_strategy : string;
  r_mode : Inst.mode;
  r_busy : int;
  r_stalls : int array;
  r_idle : int;
  r_cycles : int;
}

let lookup (compiled : Driver.compiled) =
  let extents = Array.of_list compiled.Driver.region_extents in
  let plan = Array.of_list compiled.Driver.plan in
  assert (Array.length extents = Array.length plan);
  let n_regions = Array.length extents + 1 in
  let other = n_regions - 1 in
  let images = compiled.Driver.executable.Program.images in
  let lookups =
    Array.map (fun img -> Array.make (max 1 (Image.length img)) other) images
  in
  Array.iteri
    (fun r ext ->
      Array.iteri
        (fun core (lo, hi) ->
          let l = lookups.(core) in
          for pc = lo to min hi (Array.length l) - 1 do
            l.(pc) <- r
          done)
        ext.Codegen.re_ranges)
    extents;
  let region_of ~core ~pc =
    if core < 0 || core >= Array.length lookups then other
    else
      let l = lookups.(core) in
      if pc >= 0 && pc < Array.length l then l.(pc) else other
  in
  let names =
    Array.append (Array.map (fun e -> e.Codegen.re_name) extents) [| "<other>" |]
  in
  let strategies =
    Array.append
      (Array.map
         (fun (pr : Select.planned_region) ->
           Select.strategy_name pr.Select.pr_strategy)
         plan)
      [| "-" |]
  in
  (names, strategies, region_of)

let busy_slot = 0
let stall_slot kind = 1 + Stats.stall_kind_index kind
let idle_slot = 1 + Stats.n_stall_kinds

(* The probe's core-cycle stream, folded by (region of pc, current mode). *)
let attach m (compiled : Driver.compiled) =
  if
    Program.n_cores compiled.Driver.executable
    <> (Machine.config m).Voltron_machine.Config.n_cores
  then invalid_arg "Region_profile.attach: core count mismatch";
  let names, strategies, region_of = lookup compiled in
  let counts =
    Array.init (Array.length names) (fun _ ->
        Array.init 2 (fun _ -> Array.make (idle_slot + 1) 0))
  in
  let record ~core ~pc ~k ~upto:_ ~redo:_ (ev : Machine.blame_event) =
    let slot =
      match ev with
      | Machine.Blame_busy -> busy_slot
      | Machine.Blame_wait (Machine.W_asleep | Machine.W_halted) -> idle_slot
      | Machine.Blame_wait w -> stall_slot (Machine.stall_of_wait w)
      | Machine.Blame_lockstep { b_kind } -> stall_slot b_kind
    in
    let mode =
      match Machine.mode m with Inst.Coupled -> 0 | Inst.Decoupled -> 1
    in
    let cell = counts.(region_of ~core ~pc).(mode) in
    cell.(slot) <- cell.(slot) + k
  in
  Machine.attach_probe m { Machine.null_probe with on_core_cycles = Some record };
  { names; strategies; counts }

let row_of_cell t r mode_idx =
  let cell = t.counts.(r).(mode_idx) in
  {
    r_region = t.names.(r);
    r_strategy = t.strategies.(r);
    r_mode = (if mode_idx = 0 then Inst.Coupled else Inst.Decoupled);
    r_busy = cell.(busy_slot);
    r_stalls = Array.sub cell 1 Stats.n_stall_kinds;
    r_idle = cell.(idle_slot);
    r_cycles = Array.fold_left ( + ) 0 cell;
  }

let rows t =
  let out = ref [] in
  for r = Array.length t.names - 1 downto 0 do
    for mode_idx = 1 downto 0 do
      let row = row_of_cell t r mode_idx in
      if row.r_cycles > 0 then out := row :: !out
    done
  done;
  !out

let total_cycles t =
  Array.fold_left
    (Array.fold_left (Array.fold_left ( + )))
    0 t.counts

let mode_name = Tabulate.mode_name

let pp ppf t =
  let header =
    [ "region"; "strategy"; "mode"; "cycles"; "busy" ]
    @ List.map Stats.stall_kind_label Stats.all_stall_kinds
    @ [ "idle" ]
  in
  let body =
    List.map
      (fun row ->
        ( [ row.r_region; row.r_strategy; mode_name row.r_mode ],
          row.r_cycles,
          (row.r_busy
           :: List.map
                (fun k -> row.r_stalls.(Stats.stall_kind_index k))
                Stats.all_stall_kinds)
          @ [ row.r_idle ] ))
      (rows t)
  in
  Format.fprintf ppf "%s@." (Tabulate.breakdown ~header body);
  Format.fprintf ppf "total core-cycles: %d@." (total_cycles t)

let to_json t =
  let row_json row =
    Json.Obj
      ([
         ("region", Json.Str row.r_region);
         ("strategy", Json.Str row.r_strategy);
         ("mode", Json.Str (mode_name row.r_mode));
         ("cycles", Json.Int row.r_cycles);
         ("busy", Json.Int row.r_busy);
       ]
      @ List.map
          (fun k ->
            ( Stats.stall_kind_label k,
              Json.Int row.r_stalls.(Stats.stall_kind_index k) ))
          Stats.all_stall_kinds
      @ [ ("idle", Json.Int row.r_idle) ])
  in
  Json.Obj
    [
      ("total_core_cycles", Json.Int (total_cycles t));
      ("rows", Json.List (List.map row_json (rows t)));
    ]
