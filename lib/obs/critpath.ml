module Table = Voltron_util.Table

type seg = {
  g_core : int;
  g_kind : Blame.kind;
  g_peer : int;
  g_region : int;
  g_mode : int;
  g_redo : bool;
  g_from : int;
  g_to : int;
}

type t = { p_total : int; p_segs : seg list; p_blame : Blame.t }

let seg_len g = g.g_to - g.g_from + 1

(* Backward walk over the blame intervals. The walk keeps an invariant: the
   cycles (tt, T] are already attributed, as segments whose spans tile that
   range exactly; each step either consumes [x .. tt] on the current core
   (extending the tiling leftward) or hops to the blamed peer / message
   sender at the same tt without consuming. Hops are bounded by a counter
   (a cycle of mutually-waiting cores forces consumption), so tt strictly
   decreases and the finished path's length equals the run's cycle count by
   construction — the reconciliation invariant is structural, not a
   best-effort sum. *)
let compute b =
  let n = Blame.n_cores b in
  let total = Blame.cycles b in
  let ivs = Array.init n (Blame.intervals b) in
  let dvs = Array.init n (Blame.deliveries b) in
  let find_iv c tt =
    let a = ivs.(c) in
    let lo = ref 0 and hi = ref (Array.length a - 1) in
    let found = ref None in
    while !found = None && !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      let iv = a.(mid) in
      if tt < iv.Blame.iv_from then hi := mid - 1
      else if tt > iv.Blame.iv_to then lo := mid + 1
      else found := Some iv
    done;
    match !found with
    | Some iv -> iv
    | None ->
      failwith
        (Printf.sprintf
           "Critpath.compute: no blame interval covers cycle %d on core %d" tt
           c)
  in
  (* First delivery to [c] at or after [tt]; the message whose arrival ended
     (or will end) the wait that covers [tt]. *)
  let find_dv c ~src ~start tt =
    let a = dvs.(c) in
    let lo = ref 0 and hi = ref (Array.length a) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if a.(mid).Blame.dv_cycle < tt then lo := mid + 1 else hi := mid
    done;
    let rec scan i =
      if i >= Array.length a then None
      else
        let d = a.(i) in
        if (src < 0 || d.Blame.dv_src = src) && ((not start) || d.Blame.dv_start)
        then Some d
        else scan (i + 1)
    in
    scan !lo
  in
  let segs = ref [] in
  let push ?peer c (iv : Blame.interval) from_ upto =
    segs :=
      {
        g_core = c;
        g_kind = iv.Blame.iv_kind;
        g_peer = (match peer with Some p -> p | None -> iv.Blame.iv_blame);
        g_region = iv.Blame.iv_region;
        g_mode = iv.Blame.iv_mode;
        g_redo = iv.Blame.iv_redo;
        g_from = from_;
        g_to = upto;
      }
      :: !segs
  in
  let rec walk c tt jumps =
    if tt >= 1 then begin
      let iv = find_iv c tt in
      let consume_all ?peer () =
        push ?peer c iv iv.Blame.iv_from tt;
        walk c (iv.Blame.iv_from - 1) 0
      in
      match iv.Blame.iv_kind with
      | Blame.K_net_wait | Blame.K_spawn -> (
        let start = iv.Blame.iv_kind = Blame.K_spawn in
        match find_dv c ~src:iv.Blame.iv_blame ~start tt with
        | Some d ->
          let f = d.Blame.dv_sent in
          if f + 1 <= tt then begin
            (* The message was in flight at tt: charge the wire span and
               continue on the sender just before it. *)
            let x = max iv.Blame.iv_from (f + 1) in
            push ~peer:d.Blame.dv_src c iv x tt;
            walk d.Blame.dv_src (x - 1) 0
          end
          else if jumps < n then
            (* Not even sent yet at tt — the sender is the critical one. *)
            walk d.Blame.dv_src tt (jumps + 1)
          else consume_all ~peer:d.Blame.dv_src ()
        | None -> consume_all ())
      | Blame.K_tm_commit | Blame.K_tm_serial | Blame.K_barrier
      | Blame.K_backpressure | Blame.K_latch_wait ->
        if iv.Blame.iv_blame >= 0 && iv.Blame.iv_blame <> c && jumps < n then
          walk iv.Blame.iv_blame tt (jumps + 1)
        else consume_all ()
      | Blame.K_compute | Blame.K_redo | Blame.K_bcast_wait
      | Blame.K_miss_fill | Blame.K_ifetch | Blame.K_operand
      | Blame.K_lockstep | Blame.K_fault | Blame.K_drain ->
        consume_all ()
    end
  in
  (* Start on the core that computed last — the drain tail everyone else
     spends halted belongs on the path that actually finished the work. *)
  let last_busy c =
    let a = ivs.(c) in
    let rec go i =
      if i < 0 then -1
      else
        match a.(i).Blame.iv_kind with
        | Blame.K_compute | Blame.K_redo -> a.(i).Blame.iv_to
        | _ -> go (i - 1)
    in
    go (Array.length a - 1)
  in
  let start_core = ref 0 and best = ref (-1) in
  for c = 0 to n - 1 do
    let lb = last_busy c in
    if lb > !best then begin
      best := lb;
      start_core := c
    end
  done;
  walk !start_core total 0;
  { p_total = total; p_segs = !segs; p_blame = b }

let total t = t.p_total
let segments t = t.p_segs
let length t = List.fold_left (fun acc g -> acc + seg_len g) 0 t.p_segs

(* What-if: scale the per-hop network cost by [scale] (0 = free wires).
   Every wire span on the path shrinks by the transit reduction of its one
   message, capped by the span actually on the path. *)
let whatif_net t ~scale =
  let hops = Blame.hops t.p_blame and hc = Blame.hop_cost t.p_blame in
  let saving = ref 0. in
  List.iter
    (fun g ->
      match g.g_kind with
      | Blame.K_net_wait | Blame.K_spawn | Blame.K_bcast_wait ->
        if g.g_peer >= 0 then begin
          let reduction =
            (1. -. scale) *. float_of_int (hops g.g_peer g.g_core * hc)
          in
          saving :=
            !saving
            +. Float.min (float_of_int (seg_len g)) (Float.max 0. reduction)
        end
      | _ -> ())
    t.p_segs;
  max 1 (t.p_total - int_of_float (!saving +. 0.5))

(* What-if: no TM conflicts. Serial re-execution work and waiting for the
   serial token both vanish from the path. *)
let whatif_tm t =
  let saving =
    List.fold_left
      (fun acc g ->
        if g.g_redo || g.g_kind = Blame.K_tm_serial then acc + seg_len g
        else acc)
      0 t.p_segs
  in
  max 1 (t.p_total - saving)

type row = {
  b_kind : Blame.kind;
  b_region : string;
  b_mode : int;
  b_core : int;
  b_peer : int;
  b_cycles : int;
}

type whatif = { w_class : string; w_predicted : int; w_speedup : float }

type report = {
  r_bench : string;
  r_strategy : string;
  r_n_cores : int;
  r_cycles : int;
  r_path : int;
  r_rows : row list;
  r_whatif : whatif list;
  r_tm : (string * int * int * int) list;
  r_wait : int array array;
  r_msgs : int array array;
}

let report ~bench ~strategy ?(net_scale = 0.) t =
  let names = Blame.region_names t.p_blame in
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun g ->
      let key = (g.g_kind, g.g_region, g.g_mode, g.g_core, g.g_peer) in
      let prev = Option.value ~default:0 (Hashtbl.find_opt tbl key) in
      Hashtbl.replace tbl key (prev + seg_len g))
    t.p_segs;
  let rows =
    Hashtbl.fold
      (fun (k, r, m, c, p) cyc acc ->
        {
          b_kind = k;
          b_region = names.(r);
          b_mode = m;
          b_core = c;
          b_peer = p;
          b_cycles = cyc;
        }
        :: acc)
      tbl []
    |> List.sort (fun x y ->
           match compare y.b_cycles x.b_cycles with
           | 0 ->
             compare
               (Blame.kind_label x.b_kind, x.b_region, x.b_mode, x.b_core)
               (Blame.kind_label y.b_kind, y.b_region, y.b_mode, y.b_core)
           | c -> c)
  in
  let wf label predicted =
    {
      w_class = label;
      w_predicted = predicted;
      w_speedup = float_of_int t.p_total /. float_of_int (max 1 predicted);
    }
  in
  {
    r_bench = bench;
    r_strategy = strategy;
    r_n_cores = Blame.n_cores t.p_blame;
    r_cycles = t.p_total;
    r_path = length t;
    r_rows = rows;
    r_whatif =
      [
        wf
          (Printf.sprintf "net-hop-cost x%g" net_scale)
          (whatif_net t ~scale:net_scale);
        wf "tm-aborts -> 0" (whatif_tm t);
      ];
    r_tm = Blame.tm_regions t.p_blame;
    r_wait = Blame.wait_matrix t.p_blame;
    r_msgs = Blame.msgs_matrix t.p_blame;
  }

let mode_label = function 0 -> "coupled" | _ -> "decoupled"

let pp_report ?(top = 12) ppf r =
  Format.fprintf ppf "bench %s  strategy %s  cores %d@." r.r_bench r.r_strategy
    r.r_n_cores;
  Format.fprintf ppf "critical path %d cycles over a %d-cycle run%s@." r.r_path
    r.r_cycles
    (if r.r_path = r.r_cycles then " (reconciled exact)"
     else " (RECONCILIATION MISMATCH)");
  let shown = List.filteri (fun i _ -> i < top) r.r_rows in
  let body =
    List.map
      (fun b ->
        [
          Blame.kind_label b.b_kind;
          b.b_region;
          mode_label b.b_mode;
          (if b.b_peer >= 0 then Printf.sprintf "c%d<-c%d" b.b_core b.b_peer
           else Printf.sprintf "c%d" b.b_core);
          string_of_int b.b_cycles;
          Table.cell_pct (100. *. float_of_int b.b_cycles
                          /. float_of_int (max 1 r.r_cycles));
        ])
      shown
  in
  Format.fprintf ppf "%s@."
    (Table.render
       ~header:[ "edge"; "region"; "mode"; "cores"; "cycles"; "share" ]
       body);
  if List.length r.r_rows > top then
    Format.fprintf ppf "(%d further rows; --top raises the cut)@."
      (List.length r.r_rows - top);
  Format.fprintf ppf "what-if:@.";
  List.iter
    (fun w ->
      Format.fprintf ppf "  %-20s predicted %d cycles (speedup x%.3f)@."
        w.w_class w.w_predicted w.w_speedup)
    r.r_whatif;
  if r.r_tm <> [] then begin
    Format.fprintf ppf "TM regions:@.";
    Format.fprintf ppf "%s@."
      (Table.render
         ~header:[ "region"; "begins"; "commits"; "aborts" ]
         (List.map
            (fun (name, b, c, a) ->
              [ name; string_of_int b; string_of_int c; string_of_int a ])
            r.r_tm))
  end;
  let any_wait = Array.exists (Array.exists (fun x -> x > 0)) r.r_wait in
  if any_wait then begin
    Format.fprintf ppf "cross-core wait cycles (row waits on column):@.";
    let header =
      "" :: List.init r.r_n_cores (fun c -> Printf.sprintf "c%d" c)
    in
    let body =
      List.init r.r_n_cores (fun c ->
          Printf.sprintf "c%d" c
          :: List.init r.r_n_cores (fun s -> string_of_int r.r_wait.(c).(s)))
    in
    Format.fprintf ppf "%s@." (Table.render ~header body)
  end

let matrix_to_json m =
  Json.List
    (Array.to_list
       (Array.map
          (fun row ->
            Json.List (Array.to_list (Array.map (fun x -> Json.Int x) row)))
          m))

let report_to_json r =
  let row_json b =
    Json.Obj
      [
        ("edge", Json.Str (Blame.kind_label b.b_kind));
        ("region", Json.Str b.b_region);
        ("mode", Json.Str (mode_label b.b_mode));
        ("core", Json.Int b.b_core);
        ("peer", Json.Int b.b_peer);
        ("cycles", Json.Int b.b_cycles);
      ]
  in
  let whatif_json w =
    Json.Obj
      [
        ("class", Json.Str w.w_class);
        ("predicted_cycles", Json.Int w.w_predicted);
        ("speedup", Json.Float w.w_speedup);
      ]
  in
  let tm_json (name, b, c, a) =
    Json.Obj
      [
        ("region", Json.Str name);
        ("begins", Json.Int b);
        ("commits", Json.Int c);
        ("aborts", Json.Int a);
      ]
  in
  Json.Obj
    [
      ("bench", Json.Str r.r_bench);
      ("strategy", Json.Str r.r_strategy);
      ("n_cores", Json.Int r.r_n_cores);
      ("cycles", Json.Int r.r_cycles);
      ("critical_path", Json.Int r.r_path);
      ("blame", Json.List (List.map row_json r.r_rows));
      ("whatif", Json.List (List.map whatif_json r.r_whatif));
      ("tm_regions", Json.List (List.map tm_json r.r_tm));
      ("wait_matrix", matrix_to_json r.r_wait);
      ("msgs_matrix", matrix_to_json r.r_msgs);
    ]
