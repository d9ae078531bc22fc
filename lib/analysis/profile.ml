module Cache = Voltron_mem.Cache

type loop_stat = {
  mutable entered : int;
  mutable total_trips : int;
}

type site_stat = {
  mutable accesses : int;
  mutable misses : int;
}

(* One active loop instance on the interpreter's loop stack. *)
type active = {
  a_sid : int;
  mutable a_iter : int;
  last_write : (int, int) Hashtbl.t;  (** address -> iteration that wrote it *)
}

type oracle = { array_footprint : int; checksum : int }

type t = {
  loops : (int, loop_stat) Hashtbl.t;
  cross_raw : (int, unit) Hashtbl.t;
  sites : (int, site_stat) Hashtbl.t;
  dyn : (int, int) Hashtbl.t;
  run : (< program : Voltron_ir.Hir.program > * oracle) option;
      (** the profiled program and the run's oracle facts; [None] for a
          static profile. The program sits in an object because [=]
          compares objects by identity: array initialisers are closures,
          and a profile (carried by codegen strategies) must stay
          comparable with [=]. *)
}

let empty () =
  {
    loops = Hashtbl.create 32;
    cross_raw = Hashtbl.create 8;
    sites = Hashtbl.create 64;
    dyn = Hashtbl.create 128;
    run = None;
  }

let loop_stat t sid =
  match Hashtbl.find_opt t.loops sid with
  | Some s -> s
  | None ->
    let s = { entered = 0; total_trips = 0 } in
    Hashtbl.replace t.loops sid s;
    s

let site_stat t sid =
  match Hashtbl.find_opt t.sites sid with
  | Some s -> s
  | None ->
    let s = { accesses = 0; misses = 0 } in
    Hashtbl.replace t.sites sid s;
    s

let collect ?(cache = Voltron_mem.Coherence.default_config) ?max_steps
    (p : Voltron_ir.Hir.program) =
  let t = empty () in
  let l1 = Cache.create ~sets:cache.l1d_sets ~ways:cache.l1d_ways in
  let stack : active list ref = ref [] in
  let touch_cache sid addr =
    let s = site_stat t sid in
    s.accesses <- s.accesses + 1;
    let line = addr / cache.line_words in
    match Cache.find l1 line with
    | Some _ -> Cache.touch l1 line
    | None ->
      s.misses <- s.misses + 1;
      ignore (Cache.insert l1 line Cache.E)
  in
  let on_load ~sid ~arr:_ ~addr =
    touch_cache sid addr;
    List.iter
      (fun a ->
        match Hashtbl.find_opt a.last_write addr with
        | Some w when w <> a.a_iter -> Hashtbl.replace t.cross_raw a.a_sid ()
        | Some _ | None -> ())
      !stack
  in
  let on_store ~sid ~arr:_ ~addr =
    touch_cache sid addr;
    List.iter (fun a -> Hashtbl.replace a.last_write addr a.a_iter) !stack
  in
  let events =
    {
      Voltron_ir.Interp.on_stmt =
        (fun ~sid ->
          Hashtbl.replace t.dyn sid
            (1 + Option.value ~default:0 (Hashtbl.find_opt t.dyn sid)));
      on_load;
      on_store;
      on_loop_enter =
        (fun ~sid ->
          (loop_stat t sid).entered <- (loop_stat t sid).entered + 1;
          stack := { a_sid = sid; a_iter = 0; last_write = Hashtbl.create 64 } :: !stack);
      on_loop_iter =
        (fun ~sid ~iter ->
          match !stack with
          | a :: _ when a.a_sid = sid -> a.a_iter <- iter
          | _ -> ());
      on_loop_exit =
        (fun ~sid ~trips ->
          (loop_stat t sid).total_trips <- (loop_stat t sid).total_trips + trips;
          match !stack with
          | a :: rest when a.a_sid = sid -> stack := rest
          | _ -> ());
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
let static_cross_raw (sum : Absint.summary) cross_raw (p : Voltron_ir.Hir.program) =
  let summary = Some (Lazy.from_val sum) in
  List.iter
    (fun (r : Voltron_ir.Hir.region) ->
      Voltron_ir.Hir.iter_stmts
        (fun ({ Voltron_ir.Hir.sid; node } : Voltron_ir.Hir.stmt) ->
          match node with
          | Voltron_ir.Hir.For loop ->
            if Memdep.carried_collision ~summary ~against:`Loads loop then
              Hashtbl.replace cross_raw sid ()
          | Voltron_ir.Hir.Assign _ | Voltron_ir.Hir.Store _ | Voltron_ir.Hir.If _
          | Voltron_ir.Hir.Do_while _ -> ())
        r.Voltron_ir.Hir.stmts)
    p.Voltron_ir.Hir.regions

let of_static ?(cache = Voltron_mem.Coherence.default_config)
    ?(summary : Absint.summary option) (p : Voltron_ir.Hir.program) =
  let sum = match summary with Some s -> s | None -> Absint.analyze p in
  let t = empty () in
  List.iter
    (fun (li : Absint.loop_info) ->
      Hashtbl.replace t.loops li.Absint.li_sid
        {
          entered = iround li.Absint.li_enters;
          total_trips = iround (li.Absint.li_enters *. li.Absint.li_trip_est);
        })
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
        let size = p.Voltron_ir.Hir.arrays.(s.Absint.s_arr).Voltron_ir.Hir.size in
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
        Hashtbl.replace t.sites s.Absint.s_sid
          { accesses; misses = iround (rate *. float_of_int accesses) }
      end)
    (Absint.sites sum);
  Hashtbl.iter
    (fun sid c ->
      let n = iround c in
      if n > 0 then Hashtbl.replace t.dyn sid n)
    (let tbl = Hashtbl.create 128 in
     List.iter
       (fun (r : Voltron_ir.Hir.region) ->
         Voltron_ir.Hir.iter_stmts
           (fun (st : Voltron_ir.Hir.stmt) ->
             Hashtbl.replace tbl st.Voltron_ir.Hir.sid
               (Absint.count sum st.Voltron_ir.Hir.sid))
           r.Voltron_ir.Hir.stmts)
       p.Voltron_ir.Hir.regions;
     tbl);
  t

let oracle t p =
  match t.run with Some (q, o) when q#program == p -> Some o | Some _ | None -> None

let avg_trip t sid =
  match Hashtbl.find_opt t.loops sid with
  | Some s when s.entered > 0 -> float_of_int s.total_trips /. float_of_int s.entered
  | Some _ | None -> 0.

let has_cross_raw t sid = Hashtbl.mem t.cross_raw sid

let miss_rate t sid =
  match Hashtbl.find_opt t.sites sid with
  | Some s when s.accesses > 0 -> float_of_int s.misses /. float_of_int s.accesses
  | Some _ | None -> 0.

let access_count t sid =
  match Hashtbl.find_opt t.sites sid with Some s -> s.accesses | None -> 0

let dyn_count t sid = Option.value ~default:0 (Hashtbl.find_opt t.dyn sid)
