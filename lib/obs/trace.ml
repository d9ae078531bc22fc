module Inst = Voltron_isa.Inst
module Image = Voltron_isa.Image
module Program = Voltron_isa.Program
module Vec = Voltron_util.Vec
module Machine = Voltron_machine.Machine
module Config = Voltron_machine.Config
module Stats = Voltron_machine.Stats
module Net = Voltron_net.Operand_network

type event =
  | Issue of { cycle : int; core : int; pc : int; ops : int }
  | Stall of { cycle : int; core : int; kind : Stats.stall_kind }
  | Spawned of { cycle : int; by : int; target : int }
  | Sent of { cycle : int; src : int; dst : int }
  | Recvd of { cycle : int; core : int; sender : int }
  | Machine_event of Machine.event

type t = {
  limit : int;
  buf : event Vec.t;
  mutable n_dropped : int;
}

let create ?(limit = 100_000) () = { limit; buf = Vec.create (); n_dropped = 0 }

let record t ev =
  if Vec.length t.buf < t.limit then Vec.push t.buf ev
  else t.n_dropped <- t.n_dropped + 1

let events t = Vec.to_list t.buf

(* Each event comes from the probe stream reported right where the machine
   acts, so the events keep the machine's order. Idle cycles (asleep or
   halted) are not stalls and are left out. *)
let attach m t (prog : Program.t) =
  if (Machine.config m).Config.fast_forward then
    invalid_arg "Trace.attach: the machine must be created with fast_forward = false";
  let on_core_cycles ~core ~pc ~k:_ ~upto:cycle ~redo:_ = function
    | Machine.Blame_busy ->
      let ops = (Image.decoded prog.Program.images.(core) pc).Image.d_real_ops in
      record t (Issue { cycle; core; pc; ops })
    | Machine.Blame_wait (Machine.W_asleep | Machine.W_halted) -> ()
    | Machine.Blame_wait w ->
      record t (Stall { cycle; core; kind = Machine.stall_of_wait w })
    | Machine.Blame_lockstep { b_kind = kind } -> record t (Stall { cycle; core; kind })
  in
  let on_net ev =
    let cycle = Machine.now m in
    match ev with
    | Net.Ev_send { ev_src; ev_dst; ev_payload = Net.Value _; _ } ->
      record t (Sent { cycle; src = ev_src; dst = ev_dst })
    | Net.Ev_send { ev_src; ev_dst; ev_payload = Net.Start _; _ } ->
      record t (Spawned { cycle; by = ev_src; target = ev_dst })
    | Net.Ev_deliver { ev_src; ev_dst; ev_payload = Net.Value _; _ } ->
      record t (Recvd { cycle; core = ev_dst; sender = ev_src })
    | Net.Ev_deliver { ev_payload = Net.Start _; _ } | Net.Ev_put _ | Net.Ev_get _ -> ()
  in
  Machine.attach_probe m
    {
      Machine.null_probe with
      on_core_cycles = Some on_core_cycles;
      on_net = Some on_net;
      on_event = Some (fun ev -> record t (Machine_event ev));
    }

let dropped t = t.n_dropped

type hotspot = {
  hs_core : int;
  hs_label : string;
  hs_issues : int;
  hs_ops : int;
}

let hotspots t (prog : Program.t) =
  let table : (int * string, int * int) Hashtbl.t = Hashtbl.create 32 in
  Vec.iter
    (fun ev ->
      match ev with
      | Issue { core; pc; ops; _ } ->
        let label = Image.enclosing_label prog.Program.images.(core) pc in
        let issues, total_ops =
          Option.value ~default:(0, 0) (Hashtbl.find_opt table (core, label))
        in
        Hashtbl.replace table (core, label) (issues + 1, total_ops + ops)
      | Stall _ | Spawned _ | Sent _ | Recvd _ | Machine_event _ -> ())
    t.buf;
  Hashtbl.fold
    (fun (hs_core, hs_label) (hs_issues, hs_ops) acc ->
      { hs_core; hs_label; hs_issues; hs_ops } :: acc)
    table []
  |> List.sort (fun a b -> compare b.hs_issues a.hs_issues)

let pp_event ppf = function
  | Issue { cycle; core; pc; ops } ->
    Format.fprintf ppf "[%6d] core %d issue pc=%d (%d ops)" cycle core pc ops
  | Stall { cycle; core; kind } ->
    Format.fprintf ppf "[%6d] core %d stall (%s)" cycle core
      (Stats.stall_kind_label kind)
  | Spawned { cycle; by; target } ->
    Format.fprintf ppf "[%6d] core %d spawned core %d" cycle by target
  | Sent { cycle; src; dst } ->
    Format.fprintf ppf "[%6d] core %d sent to core %d" cycle src dst
  | Recvd { cycle; core; sender } ->
    Format.fprintf ppf "[%6d] core %d received from core %d" cycle core sender
  | Machine_event (Machine.Mode_change { cycle; mode }) ->
    Format.fprintf ppf "[%6d] mode -> %a" cycle Inst.pp_mode mode
  | Machine_event (Machine.Tm_round { cycle; conflict_at = None }) ->
    Format.fprintf ppf "[%6d] TM round committed" cycle
  | Machine_event (Machine.Tm_round { cycle; conflict_at = Some c }) ->
    Format.fprintf ppf "[%6d] TM conflict at core %d (serial re-execution)" cycle c
  | Machine_event (Machine.Serial_start { cycle; core }) ->
    Format.fprintf ppf "[%6d] core %d starts serial TM re-execution" cycle core

let report ?(timeline = 60) ppf t prog =
  Format.fprintf ppf "--- timeline (first %d of %d events%s) ---@." timeline
    (Vec.length t.buf)
    (if t.n_dropped > 0 then Printf.sprintf ", %d dropped" t.n_dropped else "");
  let shown = ref 0 in
  (try
     Vec.iter
       (fun ev ->
         if !shown >= timeline then raise Exit;
         incr shown;
         Format.fprintf ppf "%a@." pp_event ev)
       t.buf
   with Exit -> ());
  Format.fprintf ppf "--- hotspots (issues per label) ---@.";
  List.iteri
    (fun i h ->
      if i < 20 then
        Format.fprintf ppf "  core %d %-24s %8d issues %8d ops@." h.hs_core
          h.hs_label h.hs_issues h.hs_ops)
    (hotspots t prog);
  (* A truncated timeline must never read as a complete one. *)
  if t.n_dropped > 0 then
    Format.fprintf ppf "… %d events dropped (limit %d)@." t.n_dropped t.limit
