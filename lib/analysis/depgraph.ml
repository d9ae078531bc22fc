type edge = { e_src : int; e_dst : int; e_lat : int }

type t = {
  ops : Voltron_ir.Cfg.lop array;
  block_of : int array;
  defs : Voltron_ir.Hir.vreg list array;
  edges : edge list;
  succs : (int * int) list array;
  preds : (int * int) list array;
  defs_of : (Voltron_ir.Hir.vreg, int list) Hashtbl.t;
  uses_of : (Voltron_ir.Hir.vreg, int list) Hashtbl.t;
  priority : int array;
  weight : int array;
}

let push tbl k v =
  Hashtbl.replace tbl k (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k))

let build ~cfg ~memdep ~latency =
  let ops = Array.of_list (Voltron_ir.Cfg.all_ops cfg) in
  let n = Array.length ops in
  (* Each op's defs, uses, write flag and latency, read once. *)
  let defs = Array.map (fun op -> Voltron_isa.Inst.defs op.Voltron_ir.Cfg.inst) ops in
  let uses = Array.map (fun op -> Voltron_isa.Inst.uses op.Voltron_ir.Cfg.inst) ops in
  let writes = Array.map (Memdep.is_write memdep) ops in
  let weight = Array.map (fun op -> latency op.Voltron_ir.Cfg.inst) ops in
  let defs_of = Hashtbl.create 64 and uses_of = Hashtbl.create 64 in
  for i = 0 to n - 1 do
    List.iter (fun v -> push defs_of v i) defs.(i);
    List.iter (fun v -> push uses_of v i) uses.(i)
  done;
  (* [push] builds each list in reverse program order; turn them in place,
     which keeps the tables' iteration order. *)
  Hashtbl.filter_map_inplace (fun _ l -> Some (List.rev l)) defs_of;
  Hashtbl.filter_map_inplace (fun _ l -> Some (List.rev l)) uses_of;
  let edges = ref [] in
  let add_edge e_src e_dst e_lat =
    if e_src <> e_dst then edges := { e_src; e_dst; e_lat } :: !edges
  in
  (* Intra-block register and memory edges, per block, in (a, b) pair
     order. *)
  let shares xs ys = List.exists (fun v -> List.mem v ys) xs in
  let block_of = Array.make n 0 in
  let start = ref 0 in
  Array.iteri
    (fun bi block ->
      let m = List.length block.Voltron_ir.Cfg.b_ops in
      for ia = !start to !start + m - 1 do
        block_of.(ia) <- bi;
        for ib = ia + 1 to !start + m - 1 do
          (* def(a) -> use(b) *)
          if shares defs.(ia) uses.(ib) then add_edge ia ib weight.(ia);
          (* use(a) -> def(b): same cycle allowed *)
          if shares uses.(ia) defs.(ib) then add_edge ia ib 0;
          (* def(a) -> def(b) *)
          if shares defs.(ia) defs.(ib) then add_edge ia ib 1;
          (* memory order *)
          if
            (writes.(ia) || writes.(ib))
            && Memdep.same_instance_alias memdep ops.(ia) ops.(ib)
          then add_edge ia ib 1
        done
      done;
      start := !start + m)
    cfg.Voltron_ir.Cfg.blocks;
  let succs = Array.make n [] and preds = Array.make n [] in
  List.iter
    (fun { e_src; e_dst; e_lat } ->
      succs.(e_src) <- (e_dst, e_lat) :: succs.(e_src);
      preds.(e_dst) <- (e_src, e_lat) :: preds.(e_dst))
    !edges;
  (* Critical path: edges always go forward in program order, so a reverse
     sweep suffices. *)
  let priority = Array.make n 0 in
  for i = n - 1 downto 0 do
    let succ_best =
      List.fold_left
        (fun acc (j, lat) -> max acc (lat + priority.(j)))
        0 succs.(i)
    in
    priority.(i) <- weight.(i) + succ_best
  done;
  {
    ops;
    block_of;
    defs;
    edges = !edges;
    succs;
    preds;
    defs_of;
    uses_of;
    priority;
    weight;
  }
