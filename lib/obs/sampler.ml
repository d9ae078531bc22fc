module Machine = Voltron_machine.Machine
module Inst = Voltron_isa.Inst
module Table = Voltron_util.Table

type sample = {
  s_cycle : int;
  s_mode : Inst.mode;
  s_ipc : float;
  s_occupancy : float;
  s_l1d_miss_rate : float;
  s_avg_net_latency : float;
  s_msgs : int;
}

type t = {
  every : int;
  machine : Machine.t;
  mutable prev : Metrics.t;
  mutable last_boundary : int;  (** last sampled multiple of [every] *)
  mutable rev_samples : sample list;
}

let sample_of t ~cycle d =
  let gauge name = Option.value ~default:0. (Metrics.find name d) in
  {
    s_cycle = cycle;
    s_mode = Machine.mode t.machine;
    s_ipc = gauge "ipc";
    s_occupancy = gauge "occupancy";
    s_l1d_miss_rate = gauge "l1d_miss_rate";
    s_avg_net_latency = gauge "avg_net_latency";
    s_msgs = List.assoc "msgs_sent" (Metrics.counters d);
  }

(* [on_window] sees every cycle exactly once, as closed intervals
   [from, upto] — one cycle wide normally, many across a stall
   fast-forward jump (which is why sampling no longer forces the
   cycle-by-cycle path). A window can therefore cross several sample
   boundaries at once: the first crossed boundary takes the whole interval
   delta (a jumped window issues nothing, so all activity since the
   previous snapshot happened at or before it), and any further boundaries
   inside the jump take synthesized all-stall samples — zero activity over
   [every] cycles, exactly what per-cycle stepping would have recorded. *)
let on_window t ~from:_ ~upto =
  if upto / t.every * t.every > t.last_boundary then begin
    let cur = Metrics.snapshot t.machine in
    let d = Metrics.delta ~before:t.prev ~after:cur in
    let first = t.last_boundary + t.every in
    let boundary = ref first in
    while !boundary <= upto do
      let s =
        if !boundary = first then
          sample_of t ~cycle:!boundary
            (Metrics.with_cycles (first - t.last_boundary) d)
        else
          sample_of t ~cycle:!boundary
            (Metrics.with_cycles t.every (Metrics.delta ~before:cur ~after:cur))
      in
      t.rev_samples <- s :: t.rev_samples;
      t.last_boundary <- !boundary;
      boundary := !boundary + t.every
    done;
    t.prev <- cur
  end

let attach ~every m =
  if every <= 0 then invalid_arg "Sampler.attach: every must be positive";
  let t =
    {
      every;
      machine = m;
      prev = Metrics.snapshot m;
      last_boundary = 0;
      rev_samples = [];
    }
  in
  Machine.attach_probe m { Machine.null_probe with on_window = Some (on_window t) };
  t

let samples t = List.rev t.rev_samples

let mode_name = Tabulate.mode_name

let pp ppf t =
  match samples t with
  | [] -> Format.fprintf ppf "(no samples: run shorter than %d cycles)@." t.every
  | ss ->
    let header =
      [ "cycle"; "mode"; "ipc"; "occupancy"; "l1d-miss"; "net-lat"; "msgs" ]
    in
    let body =
      List.map
        (fun s ->
          [
            string_of_int s.s_cycle;
            mode_name s.s_mode;
            Table.cell_f s.s_ipc;
            Table.cell_pct (100. *. s.s_occupancy);
            Table.cell_pct (100. *. s.s_l1d_miss_rate);
            Table.cell_f s.s_avg_net_latency;
            string_of_int s.s_msgs;
          ])
        ss
    in
    Format.fprintf ppf "%s" (Table.render ~header body)

let to_json t =
  let sample_json s =
    Json.Obj
      [
        ("cycle", Json.Int s.s_cycle);
        ("mode", Json.Str (mode_name s.s_mode));
        ("ipc", Json.Float s.s_ipc);
        ("occupancy", Json.Float s.s_occupancy);
        ("l1d_miss_rate", Json.Float s.s_l1d_miss_rate);
        ("avg_net_latency", Json.Float s.s_avg_net_latency);
        ("msgs", Json.Int s.s_msgs);
      ]
  in
  Json.Obj
    [
      ("every", Json.Int t.every);
      ("samples", Json.List (List.map sample_json (samples t)));
    ]
