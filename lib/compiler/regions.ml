module Hir = Voltron_ir.Hir
module Layout = Voltron_ir.Layout
module Lower = Voltron_ir.Lower
module Memdep = Voltron_analysis.Memdep
module Depgraph = Voltron_analysis.Depgraph

type region = {
  stmts : Hir.stmt list;
  cfg : Voltron_ir.Cfg.t;
  memdep : Memdep.t;
  dg : Depgraph.t;
}

type t = {
  layout : Layout.t;
  regions : region array;  (** program order *)
  lctx : Lower.ctx;  (** counters after the last region; only ever copied *)
}

let analyse lctx stmts =
  let cfg = Lower.region lctx stmts in
  let memdep = Memdep.create ~region_stmts:stmts cfg in
  let dg = Depgraph.build ~cfg ~memdep ~latency:Voltron_machine.Config.latency in
  { stmts; cfg; memdep; dg }

let of_program (p : Hir.program) =
  let layout = Layout.compute p in
  let lctx = Lower.make_ctx ~layout ~first_vreg:p.Hir.n_vregs in
  let hir = Array.of_list p.Hir.regions in
  (* [Array.init] applies in index order: numbering follows the program. *)
  let regions =
    Array.init (Array.length hir) (fun i -> analyse lctx hir.(i).Hir.stmts)
  in
  { layout; regions; lctx }

let layout t = t.layout

let region t i = if i >= 0 && i < Array.length t.regions then Some t.regions.(i) else None

let find t stmts = Array.find_opt (fun r -> r.stmts == stmts) t.regions

let fresh_ctx t = Lower.copy t.lctx
