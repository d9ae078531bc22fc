module Inst = Voltron_isa.Inst
module Image = Voltron_isa.Image
module Program = Voltron_isa.Program
module Vec = Voltron_util.Vec

type event =
  | Issue of { cycle : int; core : int; pc : int; ops : int }
  | Stall of { cycle : int; core : int; kind : Stats.stall_kind }
  | Mode_change of { cycle : int; mode : Inst.mode }
  | Spawned of { cycle : int; by : int; target : int }
  | Tm_round of { cycle : int; conflict_at : int option }
  | Sent of { cycle : int; src : int; dst : int }
  | Recvd of { cycle : int; core : int; sender : int }
  | Serial_start of { cycle : int; core : int }

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

let dropped t = t.n_dropped

type hotspot = {
  hs_core : int;
  hs_label : string;
  hs_issues : int;
  hs_ops : int;
}

(* Nearest label at or before [pc] in [image] — precomputed at image-finish
   time, so aggregating a large trace is O(events), not O(events x labels). *)
let enclosing_label = Image.enclosing_label

let hotspots t (prog : Program.t) =
  let table : (int * string, int * int) Hashtbl.t = Hashtbl.create 32 in
  Vec.iter
    (fun ev ->
      match ev with
      | Issue { core; pc; ops; _ } ->
        let label = enclosing_label prog.Program.images.(core) pc in
        let issues, total_ops =
          Option.value ~default:(0, 0) (Hashtbl.find_opt table (core, label))
        in
        Hashtbl.replace table (core, label) (issues + 1, total_ops + ops)
      | Stall _ | Mode_change _ | Spawned _ | Tm_round _ | Sent _ | Recvd _
      | Serial_start _ ->
        ())
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
  | Mode_change { cycle; mode } ->
    Format.fprintf ppf "[%6d] mode -> %a" cycle Inst.pp_mode mode
  | Spawned { cycle; by; target } ->
    Format.fprintf ppf "[%6d] core %d spawned core %d" cycle by target
  | Tm_round { cycle; conflict_at = None } ->
    Format.fprintf ppf "[%6d] TM round committed" cycle
  | Tm_round { cycle; conflict_at = Some c } ->
    Format.fprintf ppf "[%6d] TM conflict at core %d (serial re-execution)" cycle c
  | Sent { cycle; src; dst } ->
    Format.fprintf ppf "[%6d] core %d sent to core %d" cycle src dst
  | Recvd { cycle; core; sender } ->
    Format.fprintf ppf "[%6d] core %d received from core %d" cycle core sender
  | Serial_start { cycle; core } ->
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
