type edge = { e_src : int; e_dst : int; e_lat : int }

type t = {
  ops : Voltron_ir.Cfg.lop array;
  idx_of_oid : (Voltron_ir.Cfg.oid, int) Hashtbl.t;
  block_of : int array;
  edges : edge list;
  succs : (int, (int * int) list) Hashtbl.t;
  preds : (int, (int * int) list) Hashtbl.t;
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
  let idx_of_oid = Hashtbl.create n in
  Array.iteri (fun i op -> Hashtbl.replace idx_of_oid op.Voltron_ir.Cfg.oid i) ops;
  let block_of = Array.make n 0 in
  let cursor = ref 0 in
  Array.iteri
    (fun bi block ->
      List.iter
        (fun (_ : Voltron_ir.Cfg.lop) ->
          block_of.(!cursor) <- bi;
          incr cursor)
        block.Voltron_ir.Cfg.b_ops)
    cfg.Voltron_ir.Cfg.blocks;
  (* Each op's defs, uses and write flag, read once. *)
  let defs = Array.map (fun op -> Voltron_isa.Inst.defs op.Voltron_ir.Cfg.inst) ops in
  let uses = Array.map (fun op -> Voltron_isa.Inst.uses op.Voltron_ir.Cfg.inst) ops in
  let writes = Array.map (Memdep.is_write memdep) ops in
  let defs_of = Hashtbl.create 64 and uses_of = Hashtbl.create 64 in
  for i = 0 to n - 1 do
    List.iter (fun v -> push defs_of v i) defs.(i);
    List.iter (fun v -> push uses_of v i) uses.(i)
  done;
  (* push builds the lists in reverse program order; normalise. *)
  Hashtbl.iter (fun k v -> Hashtbl.replace defs_of k (List.rev v)) (Hashtbl.copy defs_of);
  Hashtbl.iter (fun k v -> Hashtbl.replace uses_of k (List.rev v)) (Hashtbl.copy uses_of);
  let edges = ref [] in
  let add_edge e_src e_dst e_lat =
    if e_src <> e_dst then edges := { e_src; e_dst; e_lat } :: !edges
  in
  (* Intra-block register and memory edges, per block, in (a, b) pair
     order. *)
  let shares xs ys = List.exists (fun v -> List.mem v ys) xs in
  let start = ref 0 in
  Array.iter
    (fun block ->
      let m = List.length block.Voltron_ir.Cfg.b_ops in
      for ia = !start to !start + m - 1 do
        let opa = ops.(ia) in
        for ib = ia + 1 to !start + m - 1 do
          (* def(a) -> use(b) *)
          if shares defs.(ia) uses.(ib) then
            add_edge ia ib (latency opa.Voltron_ir.Cfg.inst);
          (* use(a) -> def(b): same cycle allowed *)
          if shares uses.(ia) defs.(ib) then add_edge ia ib 0;
          (* def(a) -> def(b) *)
          if shares defs.(ia) defs.(ib) then add_edge ia ib 1;
          (* memory order *)
          if
            (writes.(ia) || writes.(ib))
            && Memdep.same_instance_alias memdep opa ops.(ib)
          then add_edge ia ib 1
        done
      done;
      start := !start + m)
    cfg.Voltron_ir.Cfg.blocks;
  let succs = Hashtbl.create n and preds = Hashtbl.create n in
  List.iter
    (fun { e_src; e_dst; e_lat } ->
      push succs e_src (e_dst, e_lat);
      push preds e_dst (e_src, e_lat))
    !edges;
  let weight = Array.map (fun op -> latency op.Voltron_ir.Cfg.inst) ops in
  (* Critical path: edges always go forward in program order, so a reverse
     sweep suffices. *)
  let priority = Array.make n 0 in
  for i = n - 1 downto 0 do
    let succ_best =
      List.fold_left
        (fun acc (j, lat) -> max acc (lat + priority.(j)))
        0
        (Option.value ~default:[] (Hashtbl.find_opt succs i))
    in
    priority.(i) <- weight.(i) + succ_best
  done;
  {
    ops;
    idx_of_oid;
    block_of;
    edges = !edges;
    succs;
    preds;
    defs_of;
    uses_of;
    priority;
    weight;
  }
