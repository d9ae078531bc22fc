module Config = Voltron_machine.Config
module Hir = Voltron_ir.Hir
module Check = Voltron_check.Check
module Profile = Voltron_analysis.Profile

type compiled = {
  executable : Voltron_isa.Program.t;
  plan : Select.planned_region list;
  region_extents : Codegen.region_extent list;
  oracle_checksum : int;
  array_footprint : int;
  check_diags : Check.diag list;
}

let compile ~machine ?(choice = `Hybrid) ?(check = true) ?profile ?regions
    ?max_steps (p : Hir.program) =
  let profile =
    match profile with Some pr -> pr | None -> Profile.collect ?max_steps p
  in
  let array_footprint, oracle_checksum =
    match Profile.oracle profile p with
    | Some o -> (o.Profile.array_footprint, o.Profile.checksum)
    | None ->
      (* A static profile, or one of another program: run the oracle. *)
      let r = Voltron_ir.Interp.run ?max_steps p in
      let words = Voltron_ir.Layout.mem_size r.Voltron_ir.Interp.layout in
      (words, Voltron_mem.Memory.checksum_prefix r.Voltron_ir.Interp.memory words)
  in
  let regions =
    match regions with Some rs -> rs | None -> Regions.of_program p
  in
  let plan = Select.plan ~regions ~machine ~profile choice p in
  let cg = Codegen.create ~regions machine p in
  List.iter
    (fun (pr : Select.planned_region) ->
      Codegen.emit_region cg ~name:pr.Select.pr_name pr.Select.pr_stmts
        pr.Select.pr_strategy)
    plan;
  let executable = Codegen.finalize cg in
  let check_diags =
    if check then begin
      let diags =
        Check.check_program ~infos:(Codegen.check_infos cg) machine executable
      in
      if Check.has_errors diags then raise (Check.Failed diags);
      diags
    end
    else []
  in
  {
    executable;
    plan;
    region_extents = Codegen.region_extents cg;
    oracle_checksum;
    array_footprint;
    check_diags;
  }
