module Absint = Voltron_absint.Absint
module Dom = Voltron_absint.Dom
module Hir = Voltron_ir.Hir

type t = {
  cfg : Voltron_ir.Cfg.t;
  forms : (int, Affine.linexpr option) Hashtbl.t;  (** HIR sid -> index form *)
  loop_vars : Voltron_ir.Hir.vreg list;
  absint : Absint.summary option;
      (** Region-wide value analysis backing the range/congruence
          disjointness oracle; [None] when sharpening is disabled. *)
}

let create ?(sharpen = true) ~region_stmts cfg =
  let loop_vars = ref [] in
  Voltron_ir.Hir.iter_stmts
    (fun ({ Voltron_ir.Hir.node; _ } : Voltron_ir.Hir.stmt) ->
      match node with
      | Voltron_ir.Hir.For { var; _ } -> loop_vars := var :: !loop_vars
      | Voltron_ir.Hir.Assign _ | Voltron_ir.Hir.Store _ | Voltron_ir.Hir.If _ | Voltron_ir.Hir.Do_while _ -> ())
    region_stmts;
  {
    cfg;
    forms = Affine.index_forms ~loop_vars:[] region_stmts;
    loop_vars = !loop_vars;
    absint = (if sharpen then Some (Absint.summarize_region region_stmts) else None);
  }

let mem_ref t (op : Voltron_ir.Cfg.lop) = Hashtbl.find_opt t.cfg.Voltron_ir.Cfg.mem_refs op.Voltron_ir.Cfg.oid

let is_mem t op = mem_ref t op <> None

let is_write t op =
  match mem_ref t op with Some r -> r.Voltron_ir.Cfg.m_write | None -> false

let form_of t (op : Voltron_ir.Cfg.lop) =
  if op.Voltron_ir.Cfg.hir_sid < 0 then None
  else
    match Hashtbl.find_opt t.forms op.Voltron_ir.Cfg.hir_sid with
    | Some f -> f
    | None -> None

(* The abstract index of each site over-approximates every concrete
   index it can produce (a summary starts from a ⊤ environment, and
   regions are register-closed). Two sites whose abstract indices
   can never be equal — disjoint intervals or incompatible congruence
   classes — therefore never touch the same address, in any pair of
   dynamic instances. *)
let sites_disjoint sum sid_a sid_b =
  match (Absint.index_dom sum sid_a, Absint.index_dom sum sid_b) with
  | Some ia, Some ib -> not (Dom.may_equal ia ib)
  | _ -> false

let provably_disjoint t (a : Voltron_ir.Cfg.lop) (b : Voltron_ir.Cfg.lop) =
  match t.absint with
  | None -> false
  | Some sum ->
    let sa = a.Voltron_ir.Cfg.hir_sid and sb = b.Voltron_ir.Cfg.hir_sid in
    sa >= 0 && sb >= 0 && sites_disjoint sum sa sb

let same_instance_alias t a b =
  match (mem_ref t a, mem_ref t b) with
  | None, _ | _, None -> false
  | Some ra, Some rb ->
    ra.Voltron_ir.Cfg.m_arr = rb.Voltron_ir.Cfg.m_arr
    && (match (form_of t a, form_of t b) with
       | Some fa, Some fb -> (
         match Affine.is_const (Affine.sub fa fb) with
         | Some d -> d = 0
         | None -> not (provably_disjoint t a b))
       | _ -> not (provably_disjoint t a b))

let ever_alias t a b =
  match (mem_ref t a, mem_ref t b) with
  | None, _ | _, None -> false
  | Some ra, Some rb ->
    ra.Voltron_ir.Cfg.m_arr = rb.Voltron_ir.Cfg.m_arr
    &&
    let fa = form_of t a and fb = form_of t b in
    (match (fa, fb) with
    | Some ea, Some eb -> (
      match Affine.is_const (Affine.sub ea eb) with
      | Some d when Affine.is_const ea <> None && Affine.is_const eb <> None ->
        (* Both indices constant: collide iff equal. *)
        d = 0
      | Some _ | None ->
        (* Linear in loop variables: disjoint only when some common
           variable provably separates every pair of instances. *)
        let separated =
          List.exists
            (fun var ->
              match Affine.cross_iteration_alias ~var fa fb with
              | Affine.Never -> true
              | Affine.Same_iteration_only | Affine.May_cross | Affine.Unknown ->
                false)
            t.loop_vars
        in
        (not separated) && not (provably_disjoint t a b))
    | _ -> not (provably_disjoint t a b))

(* --- Loop-carried collisions ------------------------------------------------ *)

let carried_collision ~summary ~against (loop : Hir.for_loop) =
  let var = loop.Hir.var in
  let forms = Affine.index_forms ~loop_vars:[ var ] loop.Hir.body in
  let form_of sid = Option.join (Hashtbl.find_opt forms sid) in
  let stores = ref [] and others = ref [] in
  Hir.iter_stmts
    (fun ({ Hir.sid; node } : Hir.stmt) ->
      match node with
      | Hir.Assign (_, Hir.Load (arr, _)) -> others := (sid, arr) :: !others
      | Hir.Store (arr, _, _) ->
        stores := (sid, arr) :: !stores;
        if against = `Accesses then others := (sid, arr) :: !others
      | Hir.Assign _ | Hir.If _ | Hir.For _ | Hir.Do_while _ -> ())
    loop.Hir.body;
  let disjoint sid_a sid_b =
    match summary with
    | Some sum -> sid_a <> sid_b && sites_disjoint (Lazy.force sum) sid_a sid_b
    | None -> false
  in
  List.exists
    (fun (sid_w, arr_w) ->
      List.exists
        (fun (sid_a, arr_a) ->
          arr_w = arr_a
          &&
          match Affine.cross_iteration_alias ~var (form_of sid_w) (form_of sid_a) with
          | Affine.Never | Affine.Same_iteration_only -> false
          | Affine.May_cross | Affine.Unknown -> not (disjoint sid_w sid_a))
        !others)
    !stores
