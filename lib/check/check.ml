(* Static cross-core checker for compiled Voltron programs.

   Four passes over the per-core images, each proving (or refuting) one
   invariant the runtime otherwise discovers only by deadlocking:

   - channel balance: on every path, the number of SENDs core [a] issues
     to core [b] equals the number of RECVs core [b] posts against [a].
     Counts are symbolic linear forms over loop trip counts named after
     shared labels, so a loop that sends once per iteration balances a
     loop that receives once per iteration without knowing the trip count.
   - barrier alignment: every core executes the same MODE_SWITCH sequence
     the same (path-independent) number of times, with agreeing target
     modes — the machine's mode barrier requires every core, including
     ones that were never spawned.
   - coupled-mode PUT/GET pairing: inside lock-step regions, each PUT has
     its GET on the right neighbour in the same cycle slot (anything else
     is a stale-latch failure or a lock-step stall deadlock at runtime).
   - deadlock + races: a cross-core wait-for graph over queue operations,
     spawns and barriers is checked for cycles, and shared-memory accesses
     on concurrent strands with no ordering edge between them are flagged.

   Soundness posture: the checker never trusts compiler IR — it rebuilds
   control flow from the bundles ({!Ccfg}) — but it is deliberately
   incomplete: unresolvable branches, register-indirect addresses and
   data-dependent spawn counts degrade to warnings rather than guesses. *)

module Inst = Voltron_isa.Inst
module Image = Voltron_isa.Image
module Program = Voltron_isa.Program
module Net = Voltron_net.Operand_network
module Mesh = Voltron_net.Mesh
module Config = Voltron_machine.Config
module Digraph = Voltron_util.Digraph
module Vec = Voltron_util.Vec

(* ------------------------------------------------------------------ *)
(* Diagnostics *)

type loc = { l_core : int; l_addr : int }

type wait_node = At of loc | Mode_barrier of int

type severity = Error | Warning

type kind =
  | Unbalanced_channel of {
      ch_src : int;
      ch_dst : int;
      sends : Lin.t;
      recvs : Lin.t;
    }
  | Net_misuse of Net.error
  | Put_get_mismatch of { pg_label : string; pg_slot : int; detail : string }
  | Coupled_length_mismatch of {
      cl_label : string;
      lengths : (int * int) list;  (** (core, bundles) *)
    }
  | Barrier_count_mismatch of {
      bc_mode : Inst.mode;
      counts : (int * Lin.t) list;  (** (core, switches executed) *)
    }
  | Misaligned_barrier of {
      ordinal : int;  (** 1-based barrier index *)
      modes : (int * Inst.mode) list;  (** per-core target mode *)
    }
  | Potential_deadlock of { edges : (wait_node * wait_node * string) list }
      (** wait-for cycle; each edge reads "fst waits on snd" *)
  | Data_race of {
      ra_addr : int;  (** memory word both strands touch *)
      writer : loc;
      other : loc;
      other_writes : bool;
    }
  | Partition_race of {
      region : string;
      core_a : int;
      core_b : int;
      detail : string;
    }
  | Malformed of string

type diag = { d_severity : severity; d_loc : loc option; d_kind : kind }

let pp_mode = Inst.pp_mode

let dir_name = function
  | Inst.North -> "n"
  | Inst.South -> "s"
  | Inst.East -> "e"
  | Inst.West -> "w"

let pp_kind ppf = function
  | Unbalanced_channel { ch_src; ch_dst; sends; recvs } ->
    Format.fprintf ppf
      "unbalanced channel %d->%d: core %d sends %a message(s) but core %d \
       receives %a"
      ch_src ch_dst ch_src Lin.pp sends ch_dst Lin.pp recvs
  | Net_misuse e -> Format.fprintf ppf "statically certain failure: %a" Net.pp_error e
  | Put_get_mismatch { pg_label; pg_slot; detail } ->
    Format.fprintf ppf "coupled block %s, cycle %d: %s" pg_label pg_slot detail
  | Coupled_length_mismatch { cl_label; lengths } ->
    Format.fprintf ppf
      "coupled block %s has different lengths across cores: %a (lock-step \
       execution requires identical schedules)"
      cl_label
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         (fun ppf (c, l) -> Format.fprintf ppf "core %d: %d" c l))
      lengths
  | Barrier_count_mismatch { bc_mode; counts } ->
    Format.fprintf ppf
      "MODE_SWITCH %a barrier reached a different number of times per core \
       (%a); the mode barrier requires every core"
      pp_mode bc_mode
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         (fun ppf (c, n) -> Format.fprintf ppf "core %d: %a" c Lin.pp n))
      counts
  | Misaligned_barrier { ordinal; modes } ->
    Format.fprintf ppf
      "MODE_SWITCH barrier %d has disagreeing target modes (%a)" ordinal
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         (fun ppf (c, m) -> Format.fprintf ppf "core %d: %a" c pp_mode m))
      modes
  | Potential_deadlock { edges } ->
    let pp_node ppf = function
      | At l -> Format.fprintf ppf "core %d @%d" l.l_core l.l_addr
      | Mode_barrier k -> Format.fprintf ppf "mode barrier %d" k
    in
    Format.fprintf ppf "potential deadlock, wait-for cycle:";
    List.iter
      (fun (a, b, why) ->
        Format.fprintf ppf "@.    %a waits on %a (%s)" pp_node a pp_node b why)
      edges
  | Data_race { ra_addr; writer; other; other_writes } ->
    Format.fprintf ppf
      "data race on memory word %d: core %d @%d writes while concurrent core \
       %d @%d %s it, with no ordering edge between them"
      ra_addr writer.l_core writer.l_addr other.l_core other.l_addr
      (if other_writes then "also writes" else "reads")
  | Partition_race { region; core_a; core_b; detail } ->
    Format.fprintf ppf
      "region %s: possibly-aliasing memory operations split across cores %d \
       and %d in decoupled mode: %s"
      region core_a core_b detail
  | Malformed s -> Format.pp_print_string ppf s

let pp_diag ppf d =
  let sev = match d.d_severity with Error -> "error" | Warning -> "warning" in
  (match d.d_loc with
  | Some l -> Format.fprintf ppf "%s [core %d @%d]: " sev l.l_core l.l_addr
  | None -> Format.fprintf ppf "%s: " sev);
  pp_kind ppf d.d_kind

let diag_to_string d = Format.asprintf "%a" pp_diag d

let errors diags = List.filter (fun d -> d.d_severity = Error) diags

let has_errors diags = errors diags <> []

exception Failed of diag list

(* ------------------------------------------------------------------ *)
(* Partition-side region summary (recorded by Codegen) *)

type region_access = {
  ma_id : int;  (** dependence-graph op index, identifies the op *)
  ma_core : int;
  ma_write : bool;
  ma_text : string;  (** disassembly, for the diagnostic *)
}

type region_info = {
  ri_name : string;
  ri_decoupled : bool;
  ri_accesses : region_access list;
  ri_may_alias : int -> int -> bool;
      (** [Memdep.ever_alias] between two accesses, by [ma_id] *)
}

(* ------------------------------------------------------------------ *)
(* Symbolic counting over one core's control flow *)

type ckey =
  | K_send of int * int  (** src core, dst core *)
  | K_recv of int * int  (** sender, receiving core *)
  | K_spawn of int * string  (** target core, entry label *)
  | K_barrier of Inst.mode

module CMap = Map.Make (struct
  type t = ckey

  let compare = compare
end)

type counts = Lin.t CMap.t

let key_name = function
  | K_send (a, b) -> Printf.sprintf "send:%d->%d" a b
  | K_recv (a, b) -> Printf.sprintf "recv:%d->%d" a b
  | K_spawn (w, e) -> Printf.sprintf "spawn:%d:%s" w e
  | K_barrier Inst.Coupled -> "bar:coupled"
  | K_barrier Inst.Decoupled -> "bar:decoupled"

let count_get m k = Option.value (CMap.find_opt k m) ~default:Lin.zero

let counts_add a b =
  CMap.union (fun _ x y -> Some (Lin.add x y)) a b

let counts_mul_var v m = CMap.map (Lin.mul_var v) m

(* Phi variables are named by the *channel*, not by the op kind: the
   sender's unknown at a join must be the same variable as the receiver's
   unknown at the matching join on the other core, or balanced
   path-dependent traffic could never check out. *)
let phi_key_name = function
  | K_send (a, b) | K_recv (a, b) -> Printf.sprintf "chan:%d->%d" a b
  | k -> key_name k

(* Path-merge: where the joining paths' counts disagree, keep the part
   both guarantee ({!Lin.min_}) and stand for the divergence with a fresh
   symbolic unknown named after the join point — shared across cores, so
   the same divergence on the peer core produces the same variable while
   everything accumulated before the divergence still counts. The unknown
   is idempotent: a state that already carries it (an earlier meet under
   the same tag, as when one core keeps two joins of a co-residence class
   apart that a peer merges in one meet) is absorbed, not counted twice. *)
let counts_meet ~tag a b =
  CMap.merge
    (fun k x y ->
      let vx = Option.value x ~default:Lin.zero in
      let vy = Option.value y ~default:Lin.zero in
      if Lin.equal vx vy then Some vx
      else
        let phi = Printf.sprintf "phi:%s:%s" tag (phi_key_name k) in
        Some (Lin.add (Lin.drop_var phi (Lin.min_ vx vy)) (Lin.var_ phi)))
    a b

(* Stable, cross-core-consistent name for a block. Region code is
   replicated with identical labels on every participant core, but a block
   can also carry core-private labels (a worker's SPAWN entry is placed at
   the same address as the first region block), so prefer a label the
   [shared] predicate accepts — one that exists on several cores —
   falling back to any label, then to a core-local address tag. [canon]
   maps the chosen label to its co-residence class representative (see
   {!label_canon}), so cores whose schedules collapse labels onto one
   block still agree with peers that keep them on separate blocks. *)
let block_tag ~shared ~canon (g : Ccfg.t) bi =
  let labels = g.Ccfg.blocks.(bi).Ccfg.b_labels in
  match List.find_opt shared labels with
  | Some l -> canon l
  | None -> (
    match labels with
    | l :: _ -> canon l
    | [] -> Printf.sprintf "@c%d:%d" g.Ccfg.core bi)

let block_delta core (g : Ccfg.t) bi =
  List.fold_left
    (fun acc (_, _, (i : Inst.t)) ->
      let bump k = CMap.update k (fun v -> Some (Lin.add_const (Option.value v ~default:Lin.zero) 1)) acc in
      match i with
      | Inst.Send { target; _ } -> bump (K_send (core, target))
      | Inst.Recv { sender; _ } -> bump (K_recv (sender, core))
      | Inst.Spawn { target; entry } -> bump (K_spawn (target, entry))
      | Inst.Mode_switch m -> bump (K_barrier m)
      | _ -> acc)
    CMap.empty
    (Ccfg.ops g g.Ccfg.blocks.(bi))

type range_result = {
  rr_exits : (int * Inst.label option * counts) list;
      (** (target, edge label, state) for targets outside [lo, hi] *)
  rr_terminals : counts list;  (** states at HALT / SLEEP inside the range *)
  rr_backs : (Inst.label option * counts) list;
      (** meet of states flowing back to the entry, per back-edge label *)
}

(* A loop level: the label its back edge names, and the last source block
   of an edge under that label. Distinct labels into one header block are
   distinct nested loops — a core whose schedule leaves no ops between an
   outer and an inner loop header carries both labels on a single block,
   and only the edge labels recover the nest the peer cores still see as
   separate blocks. Innermost level = smallest back-edge source. *)
type level = Inst.label option * int

let add_level (levels : level list) lab src =
  match List.assoc_opt lab levels with
  | Some s -> (lab, max s src) :: List.remove_assoc lab levels
  | None -> (lab, src) :: levels

let sort_levels = List.sort (fun (_, a) (_, b) -> compare (a : int) b)

(* Retreating edges into [target] from blocks in [target..hi], grouped by
   edge label, innermost first. *)
let back_levels (g : Ccfg.t) ~hi target =
  let levels = ref [] in
  for j = target to min hi (Ccfg.n_blocks g - 1) do
    List.iter
      (fun (t, lab) -> if t = target then levels := add_level !levels lab j)
      (Ccfg.labeled_successors g j)
  done;
  sort_levels !levels

let split_last l =
  match List.rev l with
  | last :: rev_init -> (last, List.rev rev_init)
  | [] -> invalid_arg "split_last"

(* Cross-core-stable trip-variable tag for a loop level: the label the
   back edge names, when shared; the header block's tag otherwise. *)
let level_tag ~shared ~canon (g : Ccfg.t) bi ((lab, _) : level) =
  match lab with
  | Some l when shared l -> canon l
  | _ -> block_tag ~shared ~canon g bi

let meet_backs ~tag (backs : (Inst.label option * counts) list) =
  match List.map snd backs with
  | [] -> CMap.empty
  | first :: rest ->
    List.fold_left (fun acc st -> counts_meet ~tag acc st) first rest

(* Abstractly execute the contiguous block range [lo..hi] with the given
   entry state at [lo]. Natural loops appear as a header block with
   retreating edges from inside the range: the body is analysed once from
   a zero state to get its per-iteration delta, and the header's state
   gains [trip * delta] with a trip-count variable named after the label
   the back edge targets — shared across cores, so per-iteration-balanced
   communication cancels out even though the trip count is unknown.

   [absorb] lists the levels headed at [lo] itself that this call must
   treat as internal loops (innermost first): that is how a nest whose
   headers collapsed onto one block is unpicked, one level per recursion.
   Back edges into [lo] under any remaining label are the caller's
   concern, reported through [rr_backs]. *)
let rec analyze_range (g : Ccfg.t) ~shared ~canon ~delta ?(absorb = []) lo hi entry =
  let n = hi - lo + 1 in
  let in_state = Array.make n None in
  (* Loop levels per header strictly inside the range (the entry's own
     levels arrive via [absorb]). *)
  let levels_of = Array.make n [] in
  (* Labels of forward edges into each block: the branch skeleton is
     replicated across cores even when op placement differs, so a phi
     tag drawn from these is cross-core stable where the join block's
     own label list is not (labels collapse onto one block on a core
     whose schedule puts no ops between them). *)
  let fwd_labels = Array.make n [] in
  for j = lo to hi do
    List.iter
      (fun (t, lab) ->
        if t > lo && t <= j then
          levels_of.(t - lo) <- add_level levels_of.(t - lo) lab j
        else if t > j && t <= hi then
          match lab with
          | Some l when shared l ->
            (* Canonicalise before the lexicographic pick below: the max
               over raw names need not commute with [canon]. *)
            let l = canon l in
            if not (List.mem l fwd_labels.(t - lo)) then
              fwd_labels.(t - lo) <- l :: fwd_labels.(t - lo)
          | _ -> ())
      (Ccfg.labeled_successors g j)
  done;
  Array.iteri (fun k ls -> levels_of.(k) <- sort_levels ls) levels_of;
  let join_tag target =
    match List.sort (fun a b -> compare b a) fwd_labels.(target - lo) with
    | t :: _ -> t
    | [] -> block_tag ~shared ~canon g target
  in
  let exits = ref [] in
  let terminals = ref [] in
  let backs = ref [] in
  let merge target lab st =
    if target = lo then
      backs :=
        (match List.assoc_opt lab !backs with
        | Some old ->
          (lab, counts_meet ~tag:(block_tag ~shared ~canon g lo) old st)
          :: List.remove_assoc lab !backs
        | None -> (lab, st) :: !backs)
    else if target > hi || target < lo then exits := (target, lab, st) :: !exits
    else
      in_state.(target - lo) <-
        (match in_state.(target - lo) with
        | None -> Some st
        | Some old -> Some (counts_meet ~tag:(join_tag target) old st))
  in
  (* Run the loop nest headed at [bi] (levels innermost first): the inner
     levels are absorbed into the body analysis, the outermost level's
     per-iteration delta is multiplied by its trip variable, and the
     body's exits continue with the multiplied state. Returns the first
     block after the nest. *)
  let run_nest bi levels st =
    let ((_, sk) as outer), inner = split_last levels in
    let r = analyze_range g ~shared ~canon ~delta ~absorb:inner bi sk CMap.empty in
    let d = meet_backs ~tag:(block_tag ~shared ~canon g bi) r.rr_backs in
    let st' =
      counts_add st (counts_mul_var ("iter:" ^ level_tag ~shared ~canon g bi outer) d)
    in
    List.iter
      (fun t -> terminals := counts_add st' t :: !terminals)
      r.rr_terminals;
    List.iter (fun (tg, lab, rel) -> merge tg lab (counts_add st' rel)) r.rr_exits;
    sk + 1
  in
  let start =
    match absorb with
    | [] ->
      in_state.(0) <- Some entry;
      lo
    | levels -> run_nest lo levels entry
  in
  let i = ref start in
  while !i <= hi do
    let bi = !i in
    (match in_state.(bi - lo) with
    | None -> incr i  (* not reachable within this range *)
    | Some st -> (
      match levels_of.(bi - lo) with
      | _ :: _ as levels -> i := run_nest bi levels st
      | [] ->
        let out = counts_add st (delta bi) in
        (match g.Ccfg.blocks.(bi).Ccfg.b_term with
        | Ccfg.Stop_halt | Ccfg.Stop_sleep -> terminals := out :: !terminals
        | _ -> ());
        List.iter (fun (s, lab) -> merge s lab out) (Ccfg.labeled_successors g bi);
        incr i))
  done;
  { rr_exits = !exits; rr_terminals = !terminals; rr_backs = !backs }

(* ------------------------------------------------------------------ *)
(* Strands: one entry point (core 0's address 0, or a SPAWN target) and
   everything reachable from it up to SLEEP / HALT. *)

type strand = {
  st_core : int;
  st_entry_label : string option;  (** [None] for core 0's root *)
  st_entry_block : int;
  st_blocks : int list;  (** reachable block indices, sorted *)
  st_totals : counts;  (** per full execution of the strand, unscaled *)
  mutable st_scale : Lin.t option;  (** how many times the strand runs *)
}

let analyze_strand ~diag ~shared ~canon (g : Ccfg.t) ~entry_label entry_block =
  let reach = Ccfg.reachable g entry_block in
  let hi = List.fold_left max entry_block reach in
  let delta = block_delta g.Ccfg.core g in
  let entry_levels = back_levels g ~hi entry_block in
  let absorb =
    match entry_levels with [] -> [] | ls -> snd (split_last ls)
  in
  let r = analyze_range g ~shared ~canon ~delta ~absorb entry_block hi CMap.empty in
  let where =
    match entry_label with
    | Some l -> Printf.sprintf "strand %s on core %d" l g.Ccfg.core
    | None -> Printf.sprintf "core %d's root strand" g.Ccfg.core
  in
  if r.rr_exits <> [] then
    diag Warning None
      (Malformed
         (Printf.sprintf "%s has irreducible control flow; communication \
                          counts are approximate" where));
  (* A back edge into the entry means the whole strand is a loop (the
     SPAWN entry label doubles as the loop header): every terminating path
     ran [trip] full iterations first. Inner levels of a nest collapsed
     onto the entry block were absorbed into [r] already; only the
     outermost level multiplies here. *)
  let preamble =
    match entry_levels with
    | [] -> CMap.empty
    | ls ->
      let outer, _ = split_last ls in
      let d = meet_backs ~tag:(block_tag ~shared ~canon g entry_block) r.rr_backs in
      counts_mul_var ("iter:" ^ level_tag ~shared ~canon g entry_block outer) d
  in
  let totals =
    match r.rr_terminals with
    | [] ->
      diag Warning None
        (Malformed
           (Printf.sprintf "%s has no terminating path" where));
      CMap.empty
    | first :: rest ->
      List.fold_left
        (fun acc t ->
          counts_meet ~tag:("exit:" ^ block_tag ~shared ~canon g entry_block) acc t)
        first rest
      |> counts_add preamble
  in
  {
    st_core = g.Ccfg.core;
    st_entry_label = entry_label;
    st_entry_block = entry_block;
    st_blocks = reach;
    st_totals = totals;
    st_scale = None;
  }

(* ------------------------------------------------------------------ *)
(* Whole-program context shared by the passes *)

type ctx = {
  cfg : Config.t;
  prog : Program.t;
  mesh : Mesh.t;
  graphs : Ccfg.t array;
  mutable strands : strand list;  (** root first, then by (core, entry) *)
  mutable core_totals : counts array;  (** scaled, per core *)
  mode_of : Inst.mode option array array;  (** core -> block -> entry mode *)
  mutable diags : diag list;  (** reverse order *)
}

let diag ctx sev loc kind =
  ctx.diags <- { d_severity = sev; d_loc = loc; d_kind = kind } :: ctx.diags

(* First site of an instruction satisfying [p] on [core], for diagnostics. *)
let find_site ctx core p =
  let img = ctx.prog.Program.images.(core) in
  let n = Image.length img in
  let rec go addr =
    if addr >= n then None
    else if List.exists p (Image.fetch img addr) then
      Some { l_core = core; l_addr = addr }
    else go (addr + 1)
  in
  go 0

let iter_all_ops ctx f =
  Array.iteri
    (fun core img ->
      for addr = 0 to Image.length img - 1 do
        List.iter (fun i -> f ~core ~addr i) (Image.fetch img addr)
      done)
    ctx.prog.Program.images

(* --- Strand discovery and spawn-count resolution -------------------- *)

let discover_strands ctx =
  let n = Program.n_cores ctx.prog in
  let entries = Hashtbl.create 8 in
  iter_all_ops ctx (fun ~core ~addr i ->
      match i with
      | Inst.Spawn { target; entry } ->
        if target < 0 || target >= n then
          diag ctx Error
            (Some { l_core = core; l_addr = addr })
            (Net_misuse (Net.Send_failed (Net.Bad_destination target)))
        else if not (Image.has_label ctx.prog.Program.images.(target) entry)
        then
          diag ctx Error
            (Some { l_core = core; l_addr = addr })
            (Malformed
               (Printf.sprintf
                  "SPAWN targets label %s, which does not exist on core %d"
                  entry target))
        else Hashtbl.replace entries (target, entry) ()
      | _ -> ());
  let mk_diag sev loc kind = diag ctx sev loc kind in
  (* Labels that land on the same block of some core name the same
     program point: a core whose schedule leaves no ops between two
     labels carries both on one block, while a peer with ops in between
     keeps two blocks — left alone, the cores would anchor the same
     symbolic unknown (a trip count, a path-merge phi) to different
     labels and balanced traffic could not cancel. Union co-resident
     labels across every core and canonicalise each tag to its class
     representative; the map is global, so the renaming is identical on
     all cores and counts that were equal stay equal. *)
  let canon =
    let parent = Hashtbl.create 64 in
    let rec find l =
      match Hashtbl.find_opt parent l with
      | None -> l
      | Some p ->
        let r = find p in
        Hashtbl.replace parent l r;
        r
    in
    let union a b =
      let ra = find a and rb = find b in
      if ra <> rb then
        if ra < rb then Hashtbl.replace parent rb ra
        else Hashtbl.replace parent ra rb
    in
    Array.iter
      (fun (g : Ccfg.t) ->
        Array.iter
          (fun (b : Ccfg.block) ->
            match b.Ccfg.b_labels with
            | [] | [ _ ] -> ()
            | l :: rest -> List.iter (union l) rest)
          g.Ccfg.blocks)
      ctx.graphs;
    find
  in
  (* Labels that appear on at least two cores' images: replicated region
     code, the anchor for cross-core symbolic variable names. *)
  let shared =
    let cores_of = Hashtbl.create 64 in
    Array.iter
      (fun (g : Ccfg.t) ->
        Array.iter
          (fun (b : Ccfg.block) ->
            List.iter
              (fun l ->
                let cs =
                  Option.value ~default:[] (Hashtbl.find_opt cores_of l)
                in
                if not (List.mem g.Ccfg.core cs) then
                  Hashtbl.replace cores_of l (g.Ccfg.core :: cs))
              b.Ccfg.b_labels)
          g.Ccfg.blocks)
      ctx.graphs;
    fun l ->
      match Hashtbl.find_opt cores_of l with
      | Some (_ :: _ :: _) -> true
      | _ -> false
  in
  let root =
    if Image.length ctx.prog.Program.images.(0) = 0 then []
    else
      [ analyze_strand ~diag:mk_diag ~shared ~canon ctx.graphs.(0) ~entry_label:None 0 ]
  in
  (match root with
  | [ r ] -> r.st_scale <- Some (Lin.const_ 1)
  | _ -> ());
  let workers =
    Hashtbl.fold (fun (w, e) () acc -> (w, e) :: acc) entries []
    |> List.sort compare
    |> List.filter_map (fun (w, e) ->
           let g = ctx.graphs.(w) in
           let addr = Image.resolve g.Ccfg.image e in
           match Ccfg.block_starting_at g addr with
           | Some bi ->
             Some (analyze_strand ~diag:mk_diag ~shared ~canon g ~entry_label:(Some e) bi)
           | None ->
             diag ctx Error None
               (Malformed
                  (Printf.sprintf
                     "SPAWN entry %s lands mid-block on core %d (address %d)" e
                     w addr));
             None)
  in
  ctx.strands <- root @ workers;
  (* Resolve how often each strand runs: the root runs once; a spawned
     strand runs as often as its spawners do, summed. Spawn chains are a
     DAG in practice, so a few rounds reach the fixpoint. *)
  let rounds = List.length ctx.strands + 1 in
  for _ = 1 to rounds do
    List.iter
      (fun s ->
        match (s.st_scale, s.st_entry_label) with
        | Some _, _ | None, None -> ()
        | None, Some e ->
          let key = K_spawn (s.st_core, e) in
          let known = ref true in
          let total =
            List.fold_left
              (fun acc s' ->
                let spawned = count_get s'.st_totals key in
                if Lin.equal spawned Lin.zero then acc
                else
                  match s'.st_scale with
                  | None ->
                    known := false;
                    acc
                  | Some sc -> Lin.add acc (Lin.mul sc spawned))
              Lin.zero ctx.strands
          in
          if !known then s.st_scale <- Some total)
      ctx.strands
  done;
  List.iter
    (fun s ->
      match s.st_scale with
      | Some _ -> ()
      | None ->
        diag ctx Warning None
          (Malformed
             (Printf.sprintf
                "cannot resolve how many times strand %s on core %d is \
                 spawned (mutually recursive SPAWNs?); assuming once"
                (Option.value s.st_entry_label ~default:"<root>")
                s.st_core));
        s.st_scale <- Some (Lin.const_ 1))
    ctx.strands;
  (* Per-core totals: each strand's per-run counts times its run count. *)
  let totals = Array.make (Program.n_cores ctx.prog) CMap.empty in
  List.iter
    (fun s ->
      let sc = Option.get s.st_scale in
      totals.(s.st_core) <-
        counts_add totals.(s.st_core) (CMap.map (Lin.mul sc) s.st_totals))
    ctx.strands;
  ctx.core_totals <- totals

(* --- Pass 1: channel balance + statically certain network misuse ----- *)

let check_channels ctx =
  let n = Program.n_cores ctx.prog in
  (* Statically certain network failures, independent of counting. *)
  iter_all_ops ctx (fun ~core ~addr i ->
      let here = Some { l_core = core; l_addr = addr } in
      match i with
      | Inst.Send { target; _ } when target < 0 || target >= n ->
        diag ctx Error here
          (Net_misuse (Net.Send_failed (Net.Bad_destination target)))
      | Inst.Recv { sender; _ } when sender < 0 || sender >= n ->
        diag ctx Error here
          (Malformed
             (Printf.sprintf
                "RECV from core %d, which does not exist (%d cores): this \
                 core will wait forever" sender n))
      | Inst.Put { dir; _ } when Mesh.neighbour ctx.mesh core dir = None ->
        diag ctx Error here
          (Net_misuse (Net.Put_failed { src_core = core; error = Net.Off_mesh }))
      | Inst.Get { dir; _ } when Mesh.neighbour ctx.mesh core dir = None ->
        diag ctx Error here
          (Malformed
             (Printf.sprintf
                "GET from direction %s leaves the mesh on core %d: nothing \
                 can ever arrive" (dir_name dir) core))
      | _ -> ());
  (* Per-channel symbolic balance. *)
  for a = 0 to n - 1 do
    for b = 0 to n - 1 do
      let sends = count_get ctx.core_totals.(a) (K_send (a, b)) in
      let recvs = count_get ctx.core_totals.(b) (K_recv (a, b)) in
      if not (Lin.equal sends recvs) then begin
        let is_send (i : Inst.t) =
          match i with Inst.Send { target; _ } -> target = b | _ -> false
        in
        let is_recv (i : Inst.t) =
          match i with Inst.Recv { sender; _ } -> sender = a | _ -> false
        in
        let loc =
          match find_site ctx b is_recv with
          | Some l -> Some l
          | None -> find_site ctx a is_send
        in
        diag ctx Error loc
          (Unbalanced_channel { ch_src = a; ch_dst = b; sends; recvs })
      end
    done
  done

(* --- Pass 2: barrier alignment --------------------------------------- *)

(* Per-core MODE_SWITCH sequence in execution order: the root strand's
   switches, then each worker strand's, in spawn (= entry address) order.
   Only meaningful when every strand with switches runs exactly once and
   no switch sits under a loop or a divergent path — which the count
   check has already established when it lets us get this far. *)
let barrier_sequence ctx core =
  let g = ctx.graphs.(core) in
  let strands =
    List.filter (fun s -> s.st_core = core) ctx.strands
    |> List.sort (fun a b -> compare a.st_entry_block b.st_entry_block)
    |> List.sort (fun a b ->
           compare (a.st_entry_label <> None) (b.st_entry_label <> None))
  in
  List.concat_map
    (fun s ->
      if s.st_scale <> Some (Lin.const_ 1) && s.st_scale <> None then
        (* Strand runs 0 or many times; its switches were already flagged
           by the count check if they matter. *)
        []
      else
        List.concat_map
          (fun bi ->
            List.filter_map
              (fun (addr, _, (i : Inst.t)) ->
                match i with
                | Inst.Mode_switch m -> Some (addr, m)
                | _ -> None)
              (Ccfg.ops g g.Ccfg.blocks.(bi)))
          s.st_blocks)
    strands

let check_barriers ctx =
  let n = Program.n_cores ctx.prog in
  if n <= 1 then ()
  else begin
    let count_ok = ref true in
    List.iter
      (fun mode ->
        let counts =
          List.init n (fun c -> (c, count_get ctx.core_totals.(c) (K_barrier mode)))
        in
        let all_const = List.for_all (fun (_, l) -> Lin.is_const l <> None) counts in
        let all_equal =
          match counts with
          | [] -> true
          | (_, first) :: rest -> List.for_all (fun (_, l) -> Lin.equal l first) rest
        in
        if (not all_const) || not all_equal then begin
          count_ok := false;
          let loc =
            find_site ctx 0 (fun i -> i = Inst.Mode_switch mode)
          in
          diag ctx Error loc (Barrier_count_mismatch { bc_mode = mode; counts })
        end)
      [ Inst.Coupled; Inst.Decoupled ];
    if !count_ok then begin
      let seqs = Array.init n (fun c -> barrier_sequence ctx c) in
      let lens = Array.map List.length seqs in
      let expected = lens.(0) in
      if Array.for_all (fun l -> l = expected) lens then
        for k = 0 to expected - 1 do
          let modes = Array.to_list (Array.mapi (fun c s -> (c, snd (List.nth s k))) seqs) in
          match modes with
          | [] -> ()
          | (_, m0) :: rest ->
            if List.exists (fun (_, m) -> m <> m0) rest then begin
              let diverging =
                List.find (fun (_, m) -> m <> m0) rest |> fst
              in
              let addr = fst (List.nth seqs.(diverging) k) in
              diag ctx Error
                (Some { l_core = diverging; l_addr = addr })
                (Misaligned_barrier { ordinal = k + 1; modes })
            end
        done
      else
        (* Counts agreed but sequence extraction didn't (e.g. a switch in
           a strand that runs several times) — be honest about it. *)
        diag ctx Warning None
          (Malformed
             "MODE_SWITCH ordering could not be established statically; \
              skipping barrier-order comparison")
    end
  end

(* --- Mode tagging ----------------------------------------------------- *)

(* Entry mode of every block: strands begin in decoupled mode (the
   machine starts decoupled and a woken core runs decoupled code until a
   barrier); a MODE_SWITCH terminator changes the mode for the fall-
   through successor. *)
let tag_modes ctx =
  List.iter
    (fun s ->
      let g = ctx.graphs.(s.st_core) in
      let tags = ctx.mode_of.(s.st_core) in
      let worklist = Queue.create () in
      Queue.add (s.st_entry_block, Inst.Decoupled) worklist;
      while not (Queue.is_empty worklist) do
        let bi, m = Queue.take worklist in
        match tags.(bi) with
        | Some m' ->
          if m' <> m then
            diag ctx Warning None
              (Malformed
                 (Printf.sprintf
                    "core %d block at %d is reachable in both coupled and \
                     decoupled mode; coupled checks skip it" s.st_core
                    g.Ccfg.blocks.(bi).Ccfg.b_start))
        | None ->
          tags.(bi) <- Some m;
          let out =
            match g.Ccfg.blocks.(bi).Ccfg.b_term with
            | Ccfg.Barrier m'' -> m''
            | _ -> m
          in
          List.iter (fun s' -> Queue.add (s', out) worklist) (Ccfg.successors g bi)
      done)
    ctx.strands

(* --- Pass 3: coupled-mode PUT/GET slot pairing ------------------------ *)

(* Blocks entered in [mode], grouped by label in label order, each group
   as (core, block index) pairs in core order. *)
let blocks_by_label ctx mode =
  let by_label = Hashtbl.create 16 in
  Array.iteri
    (fun core (g : Ccfg.t) ->
      Array.iteri
        (fun bi (b : Ccfg.block) ->
          if ctx.mode_of.(core).(bi) = Some mode then
            List.iter
              (fun l ->
                Hashtbl.replace by_label l
                  ((core, bi)
                  :: Option.value (Hashtbl.find_opt by_label l) ~default:[]))
              b.Ccfg.b_labels)
        g.Ccfg.blocks)
    ctx.graphs;
  Hashtbl.fold (fun l group acc -> (l, List.rev group) :: acc) by_label []
  |> List.sort compare

(* Labels shared by several cores with coupled entry mode are the same
   region block replicated per core by codegen; lock-step execution makes
   "same bundle index" mean "same cycle", so PUT/GET pairing is checked
   slot by slot. *)
let check_coupled ctx =
  let n = Program.n_cores ctx.prog in
  if n <= 1 then ()
  else begin
    let labels = blocks_by_label ctx Inst.Coupled in
    List.iter
      (fun (label, group) ->
        if List.length group < n then
          diag ctx Error None
            (Malformed
               (Printf.sprintf
                  "coupled block %s exists only on core(s) %s; lock-step \
                   execution involves every core, the others will never \
                   reach the mode barrier" label
                  (String.concat ", "
                     (List.map (fun (c, _) -> string_of_int c) group))))
        else begin
          let blocks =
            List.map
              (fun (core, bi) -> (core, ctx.graphs.(core).Ccfg.blocks.(bi)))
              group
          in
          let lengths =
            List.map (fun (c, b) -> (c, b.Ccfg.b_stop - b.Ccfg.b_start)) blocks
          in
          let len = snd (List.hd lengths) in
          if List.exists (fun (_, l) -> l <> len) lengths then
            diag ctx Error None
              (Coupled_length_mismatch { cl_label = label; lengths })
          else begin
            let last_bcast = ref None in
            for slot = 0 to len - 1 do
              let ops =
                List.concat_map
                  (fun (core, b) ->
                    let addr = b.Ccfg.b_start + slot in
                    List.map
                      (fun i -> (core, addr, i))
                      (Image.fetch ctx.graphs.(core).Ccfg.image addr))
                  blocks
              in
              let puts =
                List.filter_map
                  (fun (c, a, i) ->
                    match i with Inst.Put { dir; _ } -> Some (c, a, dir) | _ -> None)
                  ops
              in
              let gets =
                ref
                  (List.filter_map
                     (fun (c, a, i) ->
                       match i with
                       | Inst.Get { dir; _ } -> Some (c, a, dir)
                       | _ -> None)
                     ops)
              in
              let filled = Hashtbl.create 4 in
              List.iter
                (fun (c, a, dir) ->
                  match Mesh.neighbour ctx.mesh c dir with
                  | None -> ()  (* already reported by check_channels *)
                  | Some dst ->
                    let latch = (dst, Inst.opposite dir) in
                    if Hashtbl.mem filled latch then
                      diag ctx Error
                        (Some { l_core = c; l_addr = a })
                        (Net_misuse
                           (Net.Put_failed
                              { src_core = c; error = Net.Latch_full dst }))
                    else begin
                      Hashtbl.replace filled latch ();
                      let rec take acc = function
                        | [] -> None
                        | (gc, ga, gdir) :: rest
                          when gc = dst && gdir = Inst.opposite dir ->
                          ignore ga;
                          Some (List.rev_append acc rest)
                        | g :: rest -> take (g :: acc) rest
                      in
                      match take [] !gets with
                      | Some rest -> gets := rest
                      | None ->
                        diag ctx Error
                          (Some { l_core = c; l_addr = a })
                          (Put_get_mismatch
                             {
                               pg_label = label;
                               pg_slot = slot;
                               detail =
                                 Printf.sprintf
                                   "PUT.%s on core %d has no matching GET on \
                                    core %d this cycle (the latch would go \
                                    stale)" (dir_name dir) c dst;
                             })
                    end)
                puts;
              List.iter
                (fun (c, a, dir) ->
                  diag ctx Error
                    (Some { l_core = c; l_addr = a })
                    (Put_get_mismatch
                       {
                         pg_label = label;
                         pg_slot = slot;
                         detail =
                           Printf.sprintf
                             "GET.%s on core %d has no matching PUT this \
                              cycle (the whole array stalls forever)"
                             (dir_name dir) c;
                       }))
                !gets;
              (* Broadcasts: a GETB before any broadcast exists can never
                 complete; one that merely out-runs the network's delivery
                 (hops x hop cost, as [Operand_network] charges) only
                 stalls, so it is a warning. *)
              List.iter
                (fun (c, a, i) ->
                  match i with
                  | Inst.Getb _ -> begin
                    match !last_bcast with
                    | None ->
                      diag ctx Error
                        (Some { l_core = c; l_addr = a })
                        (Put_get_mismatch
                           {
                             pg_label = label;
                             pg_slot = slot;
                             detail =
                               Printf.sprintf
                                 "GETB on core %d has no preceding BCAST in \
                                  this block" c;
                           })
                    | Some (bslot, bsrc) ->
                      let arrival =
                        bslot
                        + (Mesh.hops ctx.mesh bsrc c * ctx.cfg.Config.net_hop_cost)
                      in
                      if arrival > slot then
                        diag ctx Warning
                          (Some { l_core = c; l_addr = a })
                          (Put_get_mismatch
                             {
                               pg_label = label;
                               pg_slot = slot;
                               detail =
                                 Printf.sprintf
                                   "GETB on core %d runs %d cycle(s) before \
                                    the broadcast from core %d can arrive; \
                                    the array will stall" c
                                   (arrival - slot)
                                   bsrc;
                             })
                  end
                  | _ -> ())
                ops;
              List.iter
                (fun (c, _, i) ->
                  match i with
                  | Inst.Bcast _ -> last_bcast := Some (slot, c)
                  | _ -> ())
                ops
            done
          end
        end)
      labels
  end

(* --- Pass 4a: wait-for graph deadlock detection ----------------------- *)

(* One wait-for graph, built over straight-line sequences by
   [report_cycles] and called at two scopes: one decoupled block shared by
   several cores, and the once-run code of the whole program. A node
   waits on another when it cannot issue before that one has. *)

type wait_op = Send of int | Recv of int | Spawn of int * Inst.label | Barrier

(* A sequence: its core, the SPAWN entry it starts at (if any), and its
   operations as (address, op) in issue order. *)
type wait_seq = {
  ws_core : int;
  ws_entry : Inst.label option;
  ws_ops : (int * wait_op) list;
}

let wait_op (i : Inst.t) =
  match i with
  | Inst.Send { target; _ } -> Some (Send target)
  | Inst.Recv { sender; _ } -> Some (Recv sender)
  | Inst.Spawn { target; entry } -> Some (Spawn (target, entry))
  | Inst.Mode_switch _ -> Some Barrier
  | _ -> None

let block_wait_ops (g : Ccfg.t) bi =
  List.filter_map
    (fun (addr, _, i) -> Option.map (fun op -> (addr, op)) (wait_op i))
    (Ccfg.ops g g.Ccfg.blocks.(bi))

(* Number the operations of [seqs] in order and add the four edge kinds:
   - program order: in-order issue makes each op wait on its predecessor;
   - delivery: on every channel a->b that [channel a b] admits, FIFO order
     makes the i-th RECV from a on b wait on the i-th SEND a->b;
   - spawn: a spawned sequence's first op waits on its SPAWN;
   - barrier: the k-th MODE_SWITCH rendezvous is one node of its own
     ([Mode_barrier k], added after the ops). Each core's switch waits on
     it, and it waits on every core's arrival, the op just before that
     switch, so code after a barrier transitively waits on code before it
     everywhere.
   Then report every strongly connected component of two or more nodes
   with the edges inside it, newest first, skipping a cycle that an
   earlier call already reported at the same location. *)
let report_cycles ctx ~channel seqs =
  let locs = Vec.create () and edges = ref [] in
  let node loc =
    Vec.push locs loc;
    Vec.length locs - 1
  in
  let edge u v why = edges := (u, v, why) :: !edges in
  let sends = Hashtbl.create 16 and recvs = Hashtbl.create 16 in
  let prev_op = Hashtbl.create 32 and firsts = Hashtbl.create 8 in
  let push tbl k id =
    Hashtbl.replace tbl k (id :: Option.value (Hashtbl.find_opt tbl k) ~default:[])
  in
  let seqs =
    List.map
      (fun s ->
        let c = s.ws_core and last = ref None in
        ( s,
          List.map
            (fun (addr, op) ->
              let id = node (At { l_core = c; l_addr = addr }) in
              (match !last with
              | Some p ->
                Hashtbl.replace prev_op id p;
                edge id p (Printf.sprintf "program order on core %d" c)
              | None -> Hashtbl.replace firsts (c, s.ws_entry) id);
              last := Some id;
              (match op with
              | Send t -> push sends (c, t) id
              | Recv sd -> push recvs (sd, c) id
              | Spawn _ | Barrier -> ());
              (id, op))
            s.ws_ops ))
      seqs
  in
  Hashtbl.fold (fun ch _ acc -> ch :: acc) recvs []
  |> List.sort compare
  |> List.iter (fun (a, b) ->
         if channel a b then begin
           let sent =
             Array.of_list
               (List.rev (Option.value (Hashtbl.find_opt sends (a, b)) ~default:[]))
           in
           List.iteri
             (fun i r ->
               if i < Array.length sent then
                 edge r sent.(i)
                   (Printf.sprintf "delivery on channel %d->%d (message %d)" a b
                      (i + 1)))
             (List.rev (Hashtbl.find recvs (a, b)))
         end);
  List.iter
    (fun (s, ops) ->
      List.iter
        (function
          | id, Spawn (w, e) ->
            Option.iter
              (fun first ->
                edge first id
                  (Printf.sprintf "core %d runs only after core %d spawns it" w
                     s.ws_core))
              (Hashtbl.find_opt firsts (w, Some e))
          | _ -> ())
        ops)
    seqs;
  let barriers =
    Array.init (Program.n_cores ctx.prog) (fun c ->
        List.concat_map
          (fun (s, ops) ->
            if s.ws_core = c then List.filter (fun (_, op) -> op = Barrier) ops else [])
          seqs
        |> Array.of_list)
  in
  let count = Array.fold_left (fun m l -> min m (Array.length l)) max_int barriers in
  for k = 0 to count - 1 do
    let rv = node (Mode_barrier (k + 1)) in
    Array.iter
      (fun l ->
        let id = fst l.(k) in
        edge id rv "released by the mode barrier";
        Option.iter
          (fun p -> edge rv p "mode barrier waits for every core")
          (Hashtbl.find_opt prev_op id))
      barriers
  done;
  let g = Digraph.of_edges (Vec.length locs) (List.map (fun (u, v, _) -> (u, v)) !edges) in
  Array.iter
    (function
      | [] | [ _ ] -> ()
      | comp ->
        let inside (u, v, _) = List.mem u comp && List.mem v comp in
        let at (u, v, why) = (Vec.get locs u, Vec.get locs v, why) in
        let kind =
          Potential_deadlock { edges = List.map at (List.filter inside !edges) }
        in
        (* Ops are numbered before rendezvous nodes, and every cycle
           holds an op. *)
        let loc =
          match Vec.get locs (List.fold_left min max_int comp) with
          | At l -> Some l
          | Mode_barrier _ -> None
        in
        if not (List.exists (fun d -> d.d_loc = loc && d.d_kind = kind) ctx.diags)
        then diag ctx Error loc kind)
    (Digraph.sccs g)

(* Block-local scope: a label shared by several cores in decoupled mode is
   one region block replicated per core; within one execution of it,
   queue FIFO order matches the emission order, so its SENDs and RECVs
   pair positionally whether or not the block runs once. *)
let check_block_deadlock ctx =
  if Program.n_cores ctx.prog > 1 then
    blocks_by_label ctx Inst.Decoupled
    |> List.iter (fun (_, group) ->
           if List.length group >= 2 then
             report_cycles ctx ~channel:( <> )
               (List.map
                  (fun (core, bi) ->
                    {
                      ws_core = core;
                      ws_entry = None;
                      ws_ops =
                        List.filter
                          (fun (_, op) ->
                            match op with Send _ | Recv _ -> true | _ -> false)
                          (block_wait_ops ctx.graphs.(core) bi);
                    })
                  group))

(* Program-level scope over "straight-line" operations: blocks outside
   any loop and not conditionally skipped execute exactly once, so the
   queue operations of each once-run strand can be matched positionally
   across the whole program, with spawn and barrier orderings added. This
   is what catches a master waiting on a join SEND that sits after a RECV
   the master never feeds, or crossed RECVs in hand-written glue. *)
let check_global_deadlock ctx =
  let n = Program.n_cores ctx.prog in
  if n <= 1 then ()
  else begin
    (* Taint: blocks in a loop or downstream of a conditional branch may
       execute 0 or many times; only untainted ("once") blocks take part. *)
    let tainted =
      Array.map (fun (g : Ccfg.t) -> Array.make (Ccfg.n_blocks g) false) ctx.graphs
    in
    Array.iteri
      (fun core (g : Ccfg.t) ->
        let t = tainted.(core) in
        for j = 0 to Ccfg.n_blocks g - 1 do
          List.iter
            (fun s ->
              if s <= j then
                for b = s to j do
                  t.(b) <- true
                done)
            (Ccfg.successors g j)
        done;
        let changed = ref true in
        while !changed do
          changed := false;
          for j = 0 to Ccfg.n_blocks g - 1 do
            let mark b =
              if (not t.(b)) && b < Array.length t then begin
                t.(b) <- true;
                changed := true
              end
            in
            match g.Ccfg.blocks.(j).Ccfg.b_term with
            | Ccfg.Cond _ -> List.iter mark (Ccfg.successors g j)
            | _ -> if t.(j) then List.iter mark (Ccfg.successors g j)
          done
        done)
      ctx.graphs;
    (* Once-ops of each strand that runs exactly once, address order. *)
    let once_seqs =
      List.filter_map
        (fun s ->
          if s.st_scale <> Some (Lin.const_ 1) then None
          else
            Some
              {
                ws_core = s.st_core;
                ws_entry = s.st_entry_label;
                ws_ops =
                  List.concat_map
                    (fun bi ->
                      if tainted.(s.st_core).(bi) then []
                      else block_wait_ops ctx.graphs.(s.st_core) bi)
                    s.st_blocks;
              })
        ctx.strands
    in
    (* A channel is positionally matchable only when every one of its
       SENDs and RECVs in the whole program is a once-op. *)
    let total = Hashtbl.create 16 and once = Hashtbl.create 16 in
    let bump tbl k =
      Hashtbl.replace tbl k (1 + Option.value (Hashtbl.find_opt tbl k) ~default:0)
    in
    iter_all_ops ctx (fun ~core ~addr:_ i ->
        match i with
        | Inst.Send { target; _ } -> bump total (`S (core, target))
        | Inst.Recv { sender; _ } -> bump total (`R (sender, core))
        | _ -> ());
    List.iter
      (fun s ->
        List.iter
          (fun (_, op) ->
            match op with
            | Send t -> bump once (`S (s.ws_core, t))
            | Recv sd -> bump once (`R (sd, s.ws_core))
            | Spawn _ | Barrier -> ())
          s.ws_ops)
      once_seqs;
    let channel_ok a b =
      Hashtbl.find_opt total (`S (a, b)) = Hashtbl.find_opt once (`S (a, b))
      && Hashtbl.find_opt total (`R (a, b)) = Hashtbl.find_opt once (`R (a, b))
    in
    (* Barrier nodes are only meaningful when every core owns the same
       once-barrier count (the counts then sum to n times it). *)
    let n_barriers s =
      List.length (List.filter (fun (_, op) -> op = Barrier) s.ws_ops)
    in
    let barrier_counts =
      List.init n (fun c ->
          List.fold_left
            (fun acc s -> if s.ws_core = c then acc + n_barriers s else acc)
            0 once_seqs)
    in
    let barriers_ok = List.for_all (( = ) (List.hd barrier_counts)) barrier_counts in
    (* Every kept SEND and RECV sits on a positionally matchable channel. *)
    let keep s = function
      | Send t -> t >= 0 && t < n && channel_ok s.ws_core t
      | Recv sd -> sd >= 0 && sd < n && channel_ok sd s.ws_core
      | Spawn _ -> true
      | Barrier -> barriers_ok
    in
    report_cycles ctx
      ~channel:(fun _ _ -> true)
      (List.map
         (fun s -> { s with ws_ops = List.filter (fun (_, op) -> keep s op) s.ws_ops })
         once_seqs)
  end

(* --- Pass 4b: decoupled-mode race detection (program level) ----------- *)

(* Only fully-immediate addresses (base and offset both immediates) are
   statically certain; everything else is left to the partition-level
   check below. That is exactly the shape codegen gives the DOALL
   accumulator scratch slots — the one place generated code shares memory
   across concurrent strands. *)
type access = {
  ac_loc : loc;
  ac_word : int;
  ac_write : bool;
  ac_tm : bool;
}

let imm_addr (i : Inst.t) =
  match i with
  | Inst.Load { base = Inst.Imm b; offset = Inst.Imm o; _ } -> Some (b + o, false)
  | Inst.Store { base = Inst.Imm b; offset = Inst.Imm o; _ } -> Some (b + o, true)
  | _ -> None

(* Immediate accesses of one strand, in address order, with TM tracking;
   coupled-mode blocks are skipped (lock-step scheduling orders them). *)
let strand_accesses ctx s =
  let g = ctx.graphs.(s.st_core) in
  let in_tm = ref false in
  List.concat_map
    (fun bi ->
      let ops = Ccfg.ops g g.Ccfg.blocks.(bi) in
      if ctx.mode_of.(s.st_core).(bi) = Some Inst.Coupled then begin
        (* still track TM brackets crossing the region *)
        List.iter
          (fun (_, _, i) ->
            match i with
            | Inst.Tm_begin -> in_tm := true
            | Inst.Tm_commit -> in_tm := false
            | _ -> ())
          ops;
        []
      end
      else
        List.filter_map
          (fun (addr, _, i) ->
            match i with
            | Inst.Tm_begin ->
              in_tm := true;
              None
            | Inst.Tm_commit ->
              in_tm := false;
              None
            | _ -> (
              match imm_addr i with
              | Some (word, write) ->
                Some
                  {
                    ac_loc = { l_core = s.st_core; l_addr = addr };
                    ac_word = word;
                    ac_write = write;
                    ac_tm = !in_tm;
                  }
              | None -> None))
          ops)
    s.st_blocks

let report_race ctx seen a b =
  if a.ac_word = b.ac_word
     && (a.ac_write || b.ac_write)
     && not (a.ac_tm && b.ac_tm)
  then begin
    let writer, other = if a.ac_write then (a, b) else (b, a) in
    let key = (writer.ac_loc, other.ac_loc) in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.replace seen key ();
      diag ctx Error (Some writer.ac_loc)
        (Data_race
           {
             ra_addr = writer.ac_word;
             writer = writer.ac_loc;
             other = other.ac_loc;
             other_writes = other.ac_write;
           })
    end
  end

(* Replay core 0's root strand in program order tracking which worker
   strands are live (SPAWN starts one, a sync RECV joins it). Master
   accesses race against strands live at that point; two strands race
   when they were ever live together. *)
let check_races ctx =
  match List.find_opt (fun s -> s.st_entry_label = None) ctx.strands with
  | None -> ()
  | Some root ->
    let g = ctx.graphs.(root.st_core) in
    let strand_of =
      List.filter_map
        (fun s ->
          match s.st_entry_label with
          | Some e -> Some ((s.st_core, e), s)
          | None -> None)
        ctx.strands
    in
    let accesses_of =
      let tbl = Hashtbl.create 8 in
      fun key ->
        match Hashtbl.find_opt tbl key with
        | Some a -> a
        | None ->
          let a =
            match List.assoc_opt key strand_of with
            | Some s -> strand_accesses ctx s
            | None -> []
          in
          Hashtbl.replace tbl key a;
          a
    in
    let live = ref [] in
    let co_live = ref [] in
    let master = ref [] in
    let in_tm = ref false in
    List.iter
      (fun bi ->
        let coupled = ctx.mode_of.(root.st_core).(bi) = Some Inst.Coupled in
        List.iter
          (fun (addr, _, (i : Inst.t)) ->
            match i with
            | Inst.Tm_begin -> in_tm := true
            | Inst.Tm_commit -> in_tm := false
            | Inst.Spawn { target; entry } ->
              let key = (target, entry) in
              List.iter (fun l -> co_live := (l, key) :: !co_live) !live;
              live := key :: !live
            | Inst.Recv { sender; kind = Inst.Rv_sync; _ } ->
              let rec drop = function
                | [] -> []
                | (c, e) :: rest ->
                  if c = sender then rest else (c, e) :: drop rest
              in
              live := drop !live
            | _ ->
              if not coupled then (
                match imm_addr i with
                | Some (word, write) ->
                  master :=
                    ( {
                        ac_loc = { l_core = root.st_core; l_addr = addr };
                        ac_word = word;
                        ac_write = write;
                        ac_tm = !in_tm;
                      },
                      !live )
                    :: !master
                | None -> ()))
          (Ccfg.ops g g.Ccfg.blocks.(bi)))
      root.st_blocks;
    let seen = Hashtbl.create 16 in
    List.iter
      (fun (a, snapshot) ->
        List.iter
          (fun key ->
            List.iter (fun b -> report_race ctx seen a b) (accesses_of key))
          (List.sort_uniq compare snapshot))
      (List.rev !master);
    List.iter
      (fun (k1, k2) ->
        if k1 <> k2 then
          List.iter
            (fun a ->
              List.iter (fun b -> report_race ctx seen a b) (accesses_of k2))
            (accesses_of k1))
      (List.sort_uniq compare !co_live)

(* --- Pass 4c: partition-level race check ------------------------------ *)

(* Region summaries recorded by codegen let the checker re-verify the
   partitioners' core contract: in decoupled mode there is no cross-core
   memory ordering, so possibly-aliasing operations must share a core
   (paper §4.1). [ever_alias] comes straight from analysis/memdep. *)
let check_partition_races ctx infos =
  List.iter
    (fun ri ->
      if ri.ri_decoupled then begin
        let rec pairs = function
          | [] -> ()
          | a :: rest ->
            List.iter
              (fun b ->
                if
                  a.ma_core >= 0 && b.ma_core >= 0
                  && a.ma_core <> b.ma_core
                  && (a.ma_write || b.ma_write)
                  && ri.ri_may_alias a.ma_id b.ma_id
                then
                  diag ctx Error None
                    (Partition_race
                       {
                         region = ri.ri_name;
                         core_a = a.ma_core;
                         core_b = b.ma_core;
                         detail =
                           Printf.sprintf "'%s' on core %d vs '%s' on core %d"
                             a.ma_text a.ma_core b.ma_text b.ma_core;
                       }))
              rest;
            pairs rest
        in
        pairs ri.ri_accesses
      end)
    infos

(* ------------------------------------------------------------------ *)
(* Entry point *)

let check_program ?(infos = []) (cfg : Config.t) (prog : Program.t) =
  let n = Program.n_cores prog in
  let graphs =
    Array.init n (fun c -> Ccfg.build ~core:c prog.Program.images.(c))
  in
  let ctx =
    {
      cfg;
      prog;
      mesh = Config.mesh cfg;
      graphs;
      strands = [];
      core_totals = Array.make n CMap.empty;
      mode_of = Array.map (fun g -> Array.make (Ccfg.n_blocks g) None) graphs;
      diags = [];
    }
  in
  Array.iter
    (fun (g : Ccfg.t) ->
      List.iter (fun p -> diag ctx Warning None (Malformed p)) g.Ccfg.problems)
    graphs;
  discover_strands ctx;
  tag_modes ctx;
  check_channels ctx;
  check_barriers ctx;
  check_coupled ctx;
  check_block_deadlock ctx;
  check_global_deadlock ctx;
  check_races ctx;
  check_partition_races ctx infos;
  List.rev ctx.diags
