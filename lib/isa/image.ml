(* Predecoded bundle form, built once at image-finish time so the
   simulator's per-cycle loop never re-walks an [Inst.t list] or re-allocates
   [Inst.uses] results. Everything here is derived from the bundle and
   immutable after [finish]. *)
type decoded = {
  d_ops : Inst.t array;  (** bundle ops, in issue order *)
  d_comm_out : bool array;  (** per op: PUT/BCAST/SEND/SPAWN (phase 1) *)
  d_uses : int array array;  (** per op: source registers, in operand order *)
  d_pbr_addr : int array;
      (** per op: a PBR's resolved target address; -1 for other ops and for
          a label absent from this image *)
  d_defs : int array;  (** registers written, in op order *)
  d_srcs : int array;  (** dedup union of all uses (snapshot set) *)
  d_max_reg : int;  (** max register mentioned anywhere, -1 if none *)
  d_real_ops : int;  (** non-NOP op count *)
  d_n_mem : int;  (** memory-class ops (incl. TM_BEGIN/TM_COMMIT) *)
  d_n_comm : int;  (** communication-class ops *)
  d_n_muldiv : int;  (** MUL/DIV/REM/FPU ops *)
  d_n_branch : int;  (** BR ops (a legal bundle has at most one) *)
  d_has_comm_out : bool;
  d_ends_block : bool;  (** contains BR/HALT/SLEEP/MODE_SWITCH *)
}

type t = {
  bundles : Bundle.t array;
  decoded : decoded array;
  owner_label : string array;
      (** per address: nearest label at or before it, ["<entry>"] if none *)
  addr_of_label : (Inst.label, int) Hashtbl.t;
}

type builder = {
  buf : Bundle.t Voltron_util.Vec.t;
  labels : (Inst.label, int) Hashtbl.t;
}

let builder () = { buf = Voltron_util.Vec.create (); labels = Hashtbl.create 16 }

let next_addr b = Voltron_util.Vec.length b.buf

let place_label b label =
  if Hashtbl.mem b.labels label then
    invalid_arg (Printf.sprintf "Image.place_label: duplicate label %s" label);
  Hashtbl.replace b.labels label (next_addr b)

let emit b bundle = Voltron_util.Vec.push b.buf bundle

let emit_all b bundles = List.iter (emit b) bundles

let decode labels (bundle : Bundle.t) =
  let ops = Array.of_list bundle in
  let comm_out = Array.map Inst.is_comm_out ops in
  let uses = Array.map (fun op -> Array.of_list (Inst.uses op)) ops in
  let pbr_addr =
    Array.map
      (fun (op : Inst.t) ->
        match op with
        | Inst.Pbr { target; _ } ->
          Option.value ~default:(-1) (Hashtbl.find_opt labels target)
        | _ -> -1)
      ops
  in
  let defs = Array.of_list (List.concat_map Inst.defs bundle) in
  let srcs =
    Array.fold_left
      (fun acc u ->
        Array.fold_left
          (fun acc r -> if List.mem r acc then acc else r :: acc)
          acc u)
      [] uses
    |> List.rev |> Array.of_list
  in
  let max_reg =
    Array.fold_left (fun m r -> max m r)
      (Array.fold_left (fun m r -> max m r) (-1) defs)
      srcs
  in
  let real_ops = ref 0
  and n_mem = ref 0
  and n_comm = ref 0
  and n_muldiv = ref 0
  and n_branch = ref 0
  and ends_block = ref false in
  Array.iter
    (fun (op : Inst.t) ->
      (match op with
      | Inst.Nop -> ()
      | _ ->
        incr real_ops;
        (match Inst.unit_class op with
        | Inst.Memory -> incr n_mem
        | Inst.Commun -> incr n_comm
        | Inst.Compute | Inst.Control -> ());
        match op with
        | Inst.Alu { op = Inst.Mul | Inst.Div | Inst.Rem; _ } | Inst.Fpu _ ->
          incr n_muldiv
        | _ -> ());
      match op with
      | Inst.Br _ ->
        incr n_branch;
        ends_block := true
      | Inst.Halt | Inst.Sleep | Inst.Mode_switch _ -> ends_block := true
      | _ -> ())
    ops;
  {
    d_ops = ops;
    d_comm_out = comm_out;
    d_uses = uses;
    d_pbr_addr = pbr_addr;
    d_defs = defs;
    d_srcs = srcs;
    d_max_reg = max_reg;
    d_real_ops = !real_ops;
    d_n_mem = !n_mem;
    d_n_comm = !n_comm;
    d_n_muldiv = !n_muldiv;
    d_n_branch = !n_branch;
    d_has_comm_out = Array.exists (fun b -> b) comm_out;
    d_ends_block = !ends_block;
  }

let finish b =
  (* A label placed after the last bundle points one past the end; give it a
     real landing pad so branches to it are well-defined. *)
  let len = Voltron_util.Vec.length b.buf in
  let dangling = Hashtbl.fold (fun _ addr acc -> acc || addr >= len) b.labels false in
  if dangling then Voltron_util.Vec.push b.buf [ Inst.Halt ];
  let bundles = Voltron_util.Vec.to_array b.buf in
  let n = Array.length bundles in
  (* Nearest label at or before each address; when several labels share an
     address, the alphabetically first (matching [labels_at]'s head). *)
  let label_here = Array.make n None in
  Hashtbl.iter
    (fun label addr ->
      if addr < n then
        match label_here.(addr) with
        | Some l when l <= label -> ()
        | Some _ | None -> label_here.(addr) <- Some label)
    b.labels;
  let owner_label = Array.make n "<entry>" in
  let cur = ref "<entry>" in
  for addr = 0 to n - 1 do
    (match label_here.(addr) with Some l -> cur := l | None -> ());
    owner_label.(addr) <- !cur
  done;
  {
    bundles;
    decoded = Array.map (decode b.labels) bundles;
    owner_label;
    addr_of_label = Hashtbl.copy b.labels;
  }

let length t = Array.length t.bundles

let fetch t addr =
  if addr < 0 || addr >= Array.length t.bundles then
    invalid_arg (Printf.sprintf "Image.fetch: address %d out of [0,%d)" addr (Array.length t.bundles));
  t.bundles.(addr)

let decoded t addr =
  if addr < 0 || addr >= Array.length t.decoded then
    invalid_arg (Printf.sprintf "Image.decoded: address %d out of [0,%d)" addr (Array.length t.decoded));
  t.decoded.(addr)

let enclosing_label t addr =
  if addr < 0 || addr >= Array.length t.owner_label then "<entry>"
  else t.owner_label.(addr)

let resolve t label =
  match Hashtbl.find_opt t.addr_of_label label with
  | Some addr -> addr
  | None -> raise Not_found

let has_label t label = Hashtbl.mem t.addr_of_label label

let labels_at t addr =
  Hashtbl.fold
    (fun label a acc -> if a = addr then label :: acc else acc)
    t.addr_of_label []
  |> List.sort compare

let pp ppf t =
  Array.iteri
    (fun addr bundle ->
      List.iter (fun l -> Format.fprintf ppf "%s:@." l) (labels_at t addr);
      Format.fprintf ppf "  %4d: %a@." addr Bundle.pp bundle)
    t.bundles
