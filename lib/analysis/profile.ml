module Cache = Voltron_mem.Cache

module Hir = Voltron_ir.Hir

type oracle = { array_footprint : int; checksum : int }

(* Per-sid tables, indexed by statement id. *)
type t = {
  entered : int array;  (** loop entries *)
  total_trips : int array;  (** loop iterations over all entries *)
  accesses : int array;  (** memory-site executions *)
  misses : int array;  (** memory-site profiling-cache misses *)
  dyn : int array;  (** statement executions *)
  cross_raw : Bytes.t;  (** ['\001'] for loops with a cross-iteration RAW *)
  run : (< program : Hir.program > * oracle) option;
      (** the profiled program and the run's oracle facts; [None] for a
          static profile. The program sits in an object because [=]
          compares objects by identity: array initialisers are closures,
          and a profile (carried by codegen strategies) must stay
          comparable with [=]. *)
}

(* One past the largest sid, and the deepest loop nesting. *)
let shape (p : Hir.program) =
  let n_sids = ref 0 and deepest = ref 0 in
  let rec walk depth stmts =
    List.iter
      (fun ({ Hir.sid; node } : Hir.stmt) ->
        n_sids := max !n_sids (sid + 1);
        match node with
        | Hir.Assign _ | Hir.Store _ -> ()
        | Hir.If (_, a, b) ->
          walk depth a;
          walk depth b
        | Hir.For { body; _ } | Hir.Do_while { body; _ } ->
          deepest := max !deepest (depth + 1);
          walk (depth + 1) body)
      stmts
  in
  List.iter (fun (r : Hir.region) -> walk 0 r.Hir.stmts) p.Hir.regions;
  (!n_sids, !deepest)

let empty n_sids =
  {
    entered = Array.make n_sids 0;
    total_trips = Array.make n_sids 0;
    accesses = Array.make n_sids 0;
    misses = Array.make n_sids 0;
    dyn = Array.make n_sids 0;
    cross_raw = Bytes.make n_sids '\000';
    run = None;
  }

let collect ?(cache = Voltron_mem.Coherence.default_config) ?max_steps
    (p : Hir.program) =
  let n_sids, max_depth = shape p in
  let t = empty n_sids in
  let l1 = Cache.create ~sets:cache.l1d_sets ~ways:cache.l1d_ways in
  let words = max 1 (Voltron_ir.Layout.mem_size (Voltron_ir.Layout.compute p)) in
  (* The active loop instances, outermost at depth 0. Every iteration of
     every instance takes the next id of one global counter, so the ids
     an instance hands out are all at least its [first] id, and every
     earlier instance's ids are below it. [writer.(d).(addr)] is the id of
     the depth-[d] iteration that last stored to [addr]: the store belongs
     to the current depth-[d] instance iff that id is at least its
     [first]. Each depth's array is made on first entry. *)
  let loop_sid = Array.make max_depth 0 in
  let first = Array.make max_depth 0 in
  let current = Array.make max_depth 0 in
  let writer = Array.make max_depth [||] in
  let depth = ref 0 in
  let next_id = ref 0 in
  let touch_cache sid addr =
    t.accesses.(sid) <- t.accesses.(sid) + 1;
    let line = addr / cache.line_words in
    let slot = Cache.slot l1 line in
    if slot >= 0 then Cache.touch_slot l1 slot
    else begin
      t.misses.(sid) <- t.misses.(sid) + 1;
      ignore (Cache.insert l1 line Cache.E)
    end
  in
  let on_load ~sid ~arr:_ ~addr =
    touch_cache sid addr;
    for d = 0 to !depth - 1 do
      let w = writer.(d).(addr) in
      if w >= first.(d) && w <> current.(d) then
        Bytes.set t.cross_raw loop_sid.(d) '\001'
    done
  in
  let on_store ~sid ~arr:_ ~addr =
    touch_cache sid addr;
    for d = 0 to !depth - 1 do
      writer.(d).(addr) <- current.(d)
    done
  in
  let events =
    {
      Voltron_ir.Interp.on_stmt = (fun ~sid -> t.dyn.(sid) <- t.dyn.(sid) + 1);
      on_load;
      on_store;
      on_loop_enter =
        (fun ~sid ->
          t.entered.(sid) <- t.entered.(sid) + 1;
          let d = !depth in
          if writer.(d) == [||] then writer.(d) <- Array.make words (-1);
          loop_sid.(d) <- sid;
          first.(d) <- !next_id;
          current.(d) <- !next_id;
          incr next_id;
          depth := d + 1);
      on_loop_iter =
        (fun ~sid ~iter ->
          let d = !depth - 1 in
          (* Iteration 0 keeps the id its instance was entered with. *)
          if iter > 0 && d >= 0 && loop_sid.(d) = sid then begin
            current.(d) <- !next_id;
            incr next_id
          end);
      on_loop_exit =
        (fun ~sid ~trips ->
          t.total_trips.(sid) <- t.total_trips.(sid) + trips;
          if !depth > 0 && loop_sid.(!depth - 1) = sid then decr depth);
    }
  in
  let r = Voltron_ir.Interp.run ~events ?max_steps p in
  let array_footprint = Voltron_ir.Layout.mem_size r.Voltron_ir.Interp.layout in
  let checksum =
    Voltron_mem.Memory.checksum_prefix r.Voltron_ir.Interp.memory array_footprint
  in
  let program = object method program = p end in
  { t with run = Some (program, { array_footprint; checksum }) }

(* --- Static (profile-free) synthesis ------------------------------------------ *)

module Absint = Voltron_absint.Absint
module Dom = Voltron_absint.Dom

let iround x =
  if Float.is_finite x then int_of_float (Float.round x) else max_int / 2

(* Conservative static stand-in for the observed cross-iteration RAW set:
   flag a loop when some (store, load) pair on one array can collide
   across iterations ({!Memdep.carried_collision} under the whole
   program's summary). Loops the profile would clear dynamically may stay
   flagged (costing parallelism, never correctness). *)
let static_cross_raw (sum : Absint.summary) cross_raw (p : Hir.program) =
  let summary = Some (Lazy.from_val sum) in
  List.iter
    (fun (r : Hir.region) ->
      Hir.iter_stmts
        (fun ({ Hir.sid; node } : Hir.stmt) ->
          match node with
          | Hir.For loop ->
            if Memdep.carried_collision ~summary ~against:`Loads loop then
              Bytes.set cross_raw sid '\001'
          | Hir.Assign _ | Hir.Store _ | Hir.If _ | Hir.Do_while _ -> ())
        r.Hir.stmts)
    p.Hir.regions

let of_static ?(cache = Voltron_mem.Coherence.default_config)
    ?(summary : Absint.summary option) (p : Hir.program) =
  let sum = match summary with Some s -> s | None -> Absint.analyze p in
  let t = empty (fst (shape p)) in
  List.iter
    (fun (li : Absint.loop_info) ->
      let sid = li.Absint.li_sid in
      t.entered.(sid) <- iround li.Absint.li_enters;
      t.total_trips.(sid) <- iround (li.Absint.li_enters *. li.Absint.li_trip_est))
    (Absint.loops sum);
  static_cross_raw sum t.cross_raw p;
  let l1_words = cache.Voltron_mem.Coherence.l1d_sets
                 * cache.Voltron_mem.Coherence.l1d_ways
                 * cache.Voltron_mem.Coherence.line_words
  in
  let line = float_of_int cache.Voltron_mem.Coherence.line_words in
  List.iter
    (fun (s : Absint.site) ->
      let accesses = iround s.Absint.s_count in
      if accesses > 0 then begin
        let d = s.Absint.s_index in
        let size = p.Hir.arrays.(s.Absint.s_arr).Hir.size in
        let width =
          if Dom.is_bot d then 1
          else if d.Dom.lo = min_int || d.Dom.hi = max_int then size
          else min size (d.Dom.hi - d.Dom.lo + 1)
        in
        let rate =
          if width <= l1_words then
            (* Fits in L1: cold misses on first touch of each line. *)
            Float.min 1.
              (ceil (float_of_int width /. line) /. Float.max 1. s.Absint.s_count)
          else
            (* Streams through: a miss every line/stride accesses. *)
            let stride = if Dom.is_bot d || d.Dom.m = 0 then 1 else max 1 d.Dom.m in
            Float.min 1. (float_of_int stride /. line)
        in
        let sid = s.Absint.s_sid in
        t.accesses.(sid) <- accesses;
        t.misses.(sid) <- iround (rate *. float_of_int accesses)
      end)
    (Absint.sites sum);
  List.iter
    (fun (r : Hir.region) ->
      Hir.iter_stmts
        (fun (st : Hir.stmt) ->
          t.dyn.(st.Hir.sid) <- max 0 (iround (Absint.count sum st.Hir.sid)))
        r.Hir.stmts)
    p.Hir.regions;
  t

let oracle t p =
  match t.run with Some (q, o) when q#program == p -> Some o | Some _ | None -> None

(* A sid beyond the profiled program (one [Opt] made when it rewrote the
   program) reads as never executed. *)
let get a sid = if sid < Array.length a then a.(sid) else 0

let avg_trip t sid =
  let entered = get t.entered sid in
  if entered > 0 then float_of_int (get t.total_trips sid) /. float_of_int entered
  else 0.

let has_cross_raw t sid =
  sid < Bytes.length t.cross_raw && Bytes.get t.cross_raw sid <> '\000'

let miss_rate t sid =
  let accesses = get t.accesses sid in
  if accesses > 0 then float_of_int (get t.misses sid) /. float_of_int accesses else 0.

let access_count t sid = get t.accesses sid

let dyn_count t sid = get t.dyn sid
