(** Top-level compilation entry points. *)

type compiled = {
  executable : Voltron_isa.Program.t;
  plan : Select.planned_region list;
  region_extents : Codegen.region_extent list;
      (** per-core pc ranges of each planned region, in plan order — the
          observability layer's region<->pc map *)
  oracle_checksum : int;  (** reference interpreter's memory checksum *)
  array_footprint : int;  (** words to compare (arrays only, no scratch) *)
  check_diags : Voltron_check.Check.diag list;
      (** static checker output (warnings only — errors raise); empty when
          compiled with [~check:false] *)
}

val compile :
  machine:Voltron_machine.Config.t ->
  ?choice:Select.choice ->
  ?check:bool ->
  ?profile:Voltron_analysis.Profile.t ->
  ?regions:Regions.t ->
  ?max_steps:int ->
  Voltron_ir.Hir.program ->
  compiled
(** Profiles (unless given), selects a strategy per region ([`Hybrid] by
    default), generates per-core code, and records the oracle checksum
    over the array footprint; [Voltron.Run.simulate] runs the result and
    judges its memory image against that checksum.

    The oracle comes from the profiling run
    ({!Voltron_analysis.Profile.oracle}), so a dynamic profile of this
    program value means one interpreter run in all. Only a static profile
    ({!Voltron_analysis.Profile.of_static}, [--no-profile] on the CLI) or
    a profile of another program makes [compile] run the interpreter
    itself, for the oracle alone. [max_steps] bounds whichever
    interpreter run happens here (see {!Voltron_ir.Interp.run}) — the
    fuzzing harness uses it to reject runaway shrink candidates quickly.

    [regions] is the program's region analysis ({!Regions.of_program} of
    this program), built here when absent. Selection and codegen both
    read it and never change it, so one value can serve every compile of
    the program, on any domain; the result is the same either way.

    Unless [~check:false] is given, the static cross-core checker
    ({!Voltron_check.Check}) runs over the generated images as a
    post-codegen gate: checker errors raise {!Voltron_check.Check.Failed}
    with the full diagnostic list; warnings are returned in
    [check_diags]. *)
