module Inst = Voltron_isa.Inst
module Bundle = Voltron_isa.Bundle
module Cfg = Voltron_ir.Cfg
module Depgraph = Voltron_analysis.Depgraph
module Config = Voltron_machine.Config
module Mesh = Voltron_net.Mesh
module Vec = Voltron_util.Vec
module Iset = Set.Make (Int)

type result = {
  block_code : Bundle.t list array array;
  participants : int list;
}

(* How a defined value reaches other cores (paper Fig. 5). *)
type kind =
  | Move  (* coupled: same-cycle PUT/GET chain along the mesh route *)
  | Bcast  (* coupled: BCAST/GETB of a branch condition *)
  | Send of Inst.recv_kind  (* decoupled: SEND/RECV *)

type delivery = {
  kind : kind;
  dsts : int list;  (* the consumer cores, sorted *)
  late : bool;  (* created after the block's other deliveries *)
}

(* A schedulable node: one or two (core, op) slots issued in the same
   cycle (two for a coupled-mode PUT/GET move). *)
type node = {
  nid : int;
  slots : (int * Inst.t) list;
  is_comm : bool;
  out_lat : int;
  is_br : bool;
}

type builder = {
  nodes : node Vec.t;
  mutable edges : (int * int * int) list;  (* pred, succ, lat *)
}

let new_node b ?(is_comm = false) ?(is_br = false) ~out_lat slots =
  let nid = Vec.length b.nodes in
  Vec.push b.nodes { nid; slots; is_comm; out_lat; is_br };
  nid

let add_edge b p s lat = b.edges <- (p, s, lat) :: b.edges

let schedule_region ~machine ~cfg ~(dg : Depgraph.t) ~(partition : Partition.t)
    ~mode =
  let mesh = Config.mesh machine in
  let n_cores = machine.Config.n_cores in
  let coupled = mode = Inst.Coupled in
  let participants =
    if coupled then List.init n_cores (fun c -> c) else partition.participants
  in
  let n_blocks = Array.length cfg.Cfg.blocks in
  let n_ops = Array.length dg.Depgraph.ops in
  let core_of i = partition.core_of.(i) in
  let replicable i = core_of i = -1 in
  let uses_of v = Option.value ~default:[] (Hashtbl.find_opt dg.Depgraph.uses_of v) in
  (* Vreg -> blocks whose Branch reads it. *)
  let branch_conds : (Voltron_ir.Hir.vreg, int list) Hashtbl.t = Hashtbl.create 8 in
  Array.iteri
    (fun bi (block : Cfg.block) ->
      match block.Cfg.b_term with
      | Cfg.Branch { cond; _ } ->
        Hashtbl.replace branch_conds cond
          (bi :: Option.value ~default:[] (Hashtbl.find_opt branch_conds cond))
      | Cfg.Jump _ | Cfg.Stop -> ())
    cfg.Cfg.blocks;
  (* The region's delivery plan, built in one backward pass over its ops
     (every op defines at most one vreg).
     - [reaching.(bi)] is the op whose value block [bi]'s branch reads: the
       last definition of the condition in the block, or -1 when none is
       (a condition from another block was delivered there; the interlock
       covers it).
     - [plan.(i)] is how op [i]'s value reaches each other core that needs
       it, one delivery per (op, core). A definition goes to each core with
       a non-replicable use of the vreg, and to every other participant
       when a branch in another block reads it, by a PUT/GET chain or
       SEND/RECV. A block's reaching definition instead goes to every other
       participant by BCAST/GETB or SEND/RECV(pred), which serves its other
       uses too; it stays in program order when it has any (the queue
       FIFOs follow it), and is otherwise [late].
     So each branch instance gets exactly one delivery, of the definition
     that reaches it. *)
  let block_ops = Array.make n_blocks [] in
  let reaching = Array.make n_blocks (-1) in
  let plan = Array.make n_ops { kind = Move; dsts = []; late = false } in
  for i = n_ops - 1 downto 0 do
    let bi = dg.Depgraph.block_of.(i) in
    block_ops.(bi) <- i :: block_ops.(bi);
    match dg.Depgraph.defs.(i) with
    | [ v ] ->
      let reaches =
        reaching.(bi) < 0
        &&
        match cfg.Cfg.blocks.(bi).Cfg.b_term with
        | Cfg.Branch { cond; _ } -> cond = v
        | Cfg.Jump _ | Cfg.Stop -> false
      in
      if reaches then reaching.(bi) <- i;
      if not (replicable i) then begin
        let home = core_of i in
        let others = List.filter (fun c -> c <> home) participants in
        let cond_blocks = Option.value ~default:[] (Hashtbl.find_opt branch_conds v) in
        let users =
          List.filter_map
            (fun u -> if replicable u || core_of u = home then None else Some (core_of u))
            (uses_of v)
        in
        let dsts =
          if List.exists (fun bb -> bb <> bi) cond_blocks then others @ users else users
        in
        plan.(i) <-
          (if reaches then
             { kind = (if coupled then Bcast else Send Inst.Rv_pred); dsts = others;
               late = dsts = [] }
           else
             { kind =
                 (if coupled then Move
                  else Send (if cond_blocks <> [] then Inst.Rv_pred else Inst.Rv_data));
               dsts = List.sort_uniq compare dsts; late = false })
      end
    | _ -> ()
  done;
  let out = Array.make_matrix n_cores n_blocks [] in
  (* The region's scheduling edges (all intra-block), bucketed by block in
     their order. *)
  let block_edges = Array.make n_blocks [] in
  List.iter
    (fun ({ Depgraph.e_src = p; _ } as e) ->
      let bi = dg.Depgraph.block_of.(p) in
      block_edges.(bi) <- e :: block_edges.(bi))
    (List.rev dg.Depgraph.edges);
  (* Node id of op [i]'s copy on core [c], or -1; each op belongs to one
     block, so entries are written once and read within that block. *)
  let op_node = Array.make (n_ops * n_cores) (-1) in
  let node_of i c = op_node.((i * n_cores) + c) in
  (* ----- per block ----- *)
  Array.iteri
    (fun bi (block : Cfg.block) ->
      let b = { nodes = Vec.create (); edges = [] } in
      let lat_of i = dg.Depgraph.weight.(i) in
      (* Node ids for (op, core); replicable ops get one per participant. *)
      let add_op_node i c =
        op_node.((i * n_cores) + c) <-
          new_node b ~out_lat:(lat_of i) [ (c, dg.Depgraph.ops.(i).Cfg.inst) ]
      in
      List.iter
        (fun i ->
          if replicable i then List.iter (add_op_node i) participants
          else add_op_node i (core_of i))
        block_ops.(bi);
      (* Intra-block dependence edges, mapped through replication: a
         replicated end pairs with the other end's copy on the same core. *)
      List.iter
        (fun { Depgraph.e_src = p; e_dst = q; e_lat } ->
          if not (replicable p || replicable q) then
            add_edge b (node_of p (core_of p)) (node_of q (core_of q)) e_lat
          else
            List.iter
              (fun c ->
                let np = node_of p c and nq = node_of q c in
                if np >= 0 && nq >= 0 then add_edge b np nq e_lat)
              (if not (replicable p) then [ core_of p ]
               else if not (replicable q) then [ core_of q ]
               else participants))
        block_edges.(bi);
      (* Value communication, as the plan says. *)
      let fifo : (int * int, int list) Hashtbl.t = Hashtbl.create 8 in
      (* (src,dst) -> send node ids in insertion (program) order, and the
         matching receive nodes mirror the same order. *)
      let fifo_recv : (int * int, int list) Hashtbl.t = Hashtbl.create 8 in
      let chain tbl key nid =
        let prev = Option.value ~default:[] (Hashtbl.find_opt tbl key) in
        (match prev with last :: _ -> add_edge b last nid 0 | [] -> ());
        Hashtbl.replace tbl key (nid :: prev)
      in
      (* Wire a delivery node that writes [v] on core [c] into local uses
         inside this block. *)
      let wire_local_uses i v c delivery =
        List.iter
          (fun u ->
            if (not (replicable u)) && dg.Depgraph.block_of.(u) = bi && core_of u = c
            then begin
              let nu = node_of u c in
              let uses_v = List.mem v (Inst.uses dg.Depgraph.ops.(u).Cfg.inst) in
              let defines_v = List.mem v dg.Depgraph.defs.(u) in
              if uses_v || defines_v then
                if u > i then add_edge b delivery nu 1
                else add_edge b nu delivery 0
            end)
          (uses_of v)
      in
      (* Create op [i]'s deliveries; the node that writes its value on each
         destination core. *)
      let deliver i =
        match plan.(i) with
        | { dsts = []; _ } -> []
        | { kind; dsts; _ } -> (
          let v = List.hd dg.Depgraph.defs.(i) in
          let home = core_of i in
          let def_node = node_of i home in
          match kind with
          | Move ->
            (* Chain of same-cycle PUT/GET moves along the mesh route. *)
            let rec hop prev_node = function
              | a :: (c :: _ as rest) ->
                let dir =
                  List.find
                    (fun d -> Mesh.neighbour mesh a d = Some c)
                    [ Inst.North; Inst.South; Inst.East; Inst.West ]
                in
                let mv =
                  new_node b ~is_comm:true ~out_lat:1
                    [
                      (a, Inst.Put { dir; src = Inst.Reg v });
                      (c, Inst.Get { dir = Inst.opposite dir; dst = v });
                    ]
                in
                let lat = if prev_node = def_node then lat_of i else 1 in
                add_edge b prev_node mv lat;
                wire_local_uses i v c mv;
                hop mv rest
              | [ _ ] | [] -> prev_node
            in
            List.map (fun dst -> (dst, hop def_node (Mesh.path_cores mesh ~src:home ~dst))) dsts
          | Bcast ->
            let bcast =
              new_node b ~is_comm:true ~out_lat:0
                [ (home, Inst.Bcast { src = Inst.Reg v }) ]
            in
            add_edge b def_node bcast (lat_of i);
            List.map
              (fun c ->
                let g = new_node b ~is_comm:true ~out_lat:1 [ (c, Inst.Getb { dst = v }) ] in
                add_edge b bcast g (Mesh.hops mesh home c);
                wire_local_uses i v c g;
                (c, g))
              dsts
          | Send kind ->
            List.map
              (fun dst ->
                let send =
                  new_node b ~is_comm:true ~out_lat:1
                    [ (home, Inst.Send { target = dst; src = Inst.Reg v }) ]
                in
                add_edge b def_node send (lat_of i);
                chain fifo (home, dst) send;
                let recv =
                  new_node b ~is_comm:true ~out_lat:1
                    [ (dst, Inst.Recv { sender = home; dst = v; kind }) ]
                in
                add_edge b send recv (1 + Mesh.hops mesh home dst);
                chain fifo_recv (home, dst) recv;
                wire_local_uses i v dst recv;
                (dst, recv))
              dsts)
      in
      let reach = reaching.(bi) in
      let reach_at = ref [] in
      let deliver_now i =
        let at = deliver i in
        if i = reach then reach_at := at
      in
      List.iter
        (fun i -> if not (replicable i || plan.(i).late) then deliver_now i)
        block_ops.(bi);
      (* ----- terminator ----- *)
      (* A late condition is delivered after the block's other values: the
         list scheduler breaks priority ties by node id. *)
      if reach >= 0 && plan.(reach).late then deliver_now reach;
      (* The node that makes the branch's condition available on core [c]. *)
      let cond_at c =
        if reach < 0 then None
        else if replicable reach || c = core_of reach then
          let nd = node_of reach c in
          if nd >= 0 then Some nd else None
        else List.assoc_opt c !reach_at
      in
      let term =
        match block.Cfg.b_term with
        | Cfg.Stop -> None
        | Cfg.Jump l when bi + 1 < n_blocks && cfg.Cfg.blocks.(bi + 1).Cfg.b_label = l ->
          None
        | Cfg.Jump target -> Some (target, None, false)
        | Cfg.Branch { cond; invert; target } -> Some (target, Some (Inst.Reg cond), invert)
      in
      let brs =
        match term with
        | None -> []
        | Some (target, pred, invert) ->
          List.map
            (fun c ->
              let pbr = new_node b ~out_lat:1 [ (c, Inst.Pbr { btr = 0; target }) ] in
              let br =
                new_node b ~is_br:true ~out_lat:0 [ (c, Inst.Br { btr = 0; pred; invert }) ]
              in
              add_edge b pbr br 1;
              (match cond_at c with
              | Some dep -> add_edge b dep br 1
              | None -> ());
              br)
            participants
      in
      (* ----- list scheduling ----- *)
      let nodes = Vec.to_array b.nodes in
      let n = Array.length nodes in
      let succs = Array.make n [] and preds = Array.make n [] in
      List.iter
        (fun (p, s, lat) ->
          succs.(p) <- (s, lat) :: succs.(p);
          preds.(s) <- (p, lat) :: preds.(s))
        b.edges;
      (* Critical-path priorities by memo DFS; -2 marks a node in progress,
         so a dependence cycle fails instead of recursing without end. *)
      let prio = Array.make n (-1) in
      let rec cp i =
        if prio.(i) >= 0 then prio.(i)
        else if prio.(i) = -2 then failwith "Sched: dependence cycle in block graph"
        else begin
          prio.(i) <- -2;
          let best =
            List.fold_left (fun acc (j, lat) -> max acc (lat + cp j)) 0 succs.(i)
          in
          prio.(i) <- nodes.(i).out_lat + best;
          prio.(i)
        end
      in
      for i = 0 to n - 1 do
        ignore (cp i)
      done;
      let cycle = Array.make n (-1) in
      (* Slots taken per core and cycle, one growable array per core and
         unit kind. *)
      let main_used = Array.make n_cores [||] and comm_used = Array.make n_cores [||] in
      let units node = if node.is_comm then comm_used else main_used in
      let fits node t =
        let width =
          if node.is_comm then machine.Config.comm_width else machine.Config.issue_width
        in
        List.for_all
          (fun (c, _) ->
            let row = (units node).(c) in
            t >= Array.length row || row.(t) < width)
          node.slots
      in
      let occupy node t =
        List.iter
          (fun (c, _) ->
            let tbl = units node in
            let row = tbl.(c) in
            let row =
              if t < Array.length row then row
              else begin
                let grown = Array.make (max (t + 1) (2 * Array.length row)) 0 in
                Array.blit row 0 grown 0 (Array.length row);
                tbl.(c) <- grown;
                grown
              end
            in
            row.(t) <- row.(t) + 1)
          node.slots
      in
      (* Each step places the ready non-branch node of highest priority,
         ties to the lowest node id: [order] ranks the nodes that way, and
         [ready] holds the ranks of the nodes whose non-branch
         predecessors are all placed. *)
      let order = Array.init n Fun.id in
      Array.stable_sort (fun a b -> compare prio.(b) prio.(a)) order;
      let rank = Array.make n 0 in
      Array.iteri (fun r nid -> rank.(nid) <- r) order;
      let pending = Array.make n 0 in
      Array.iter
        (fun nd ->
          List.iter
            (fun (p, _) -> if not nodes.(p).is_br then pending.(nd.nid) <- pending.(nd.nid) + 1)
            preds.(nd.nid))
        nodes;
      let ready =
        ref
          (Array.fold_left
             (fun acc nd ->
               if nd.is_br || pending.(nd.nid) > 0 then acc else Iset.add rank.(nd.nid) acc)
             Iset.empty nodes)
      in
      let unsched =
        ref (Array.fold_left (fun acc nd -> if nd.is_br then acc else acc + 1) 0 nodes)
      in
      while not (Iset.is_empty !ready) do
        let r = Iset.min_elt !ready in
        ready := Iset.remove r !ready;
        let nid = order.(r) in
        let nd = nodes.(nid) in
        let earliest =
          List.fold_left
            (fun acc (p, lat) -> if nodes.(p).is_br then acc else max acc (cycle.(p) + lat))
            0 preds.(nid)
        in
        let t = ref earliest in
        while not (fits nd !t) do
          incr t
        done;
        cycle.(nid) <- !t;
        occupy nd !t;
        decr unsched;
        List.iter
          (fun (s, _) ->
            if not nodes.(s).is_br then begin
              pending.(s) <- pending.(s) - 1;
              if pending.(s) = 0 then ready := Iset.add rank.(s) !ready
            end)
          succs.(nid)
      done;
      if !unsched > 0 then failwith "Sched: dependence cycle in block graph";
      (* Branch placement. *)
      let max_cycle =
        Array.fold_left
          (fun acc nd -> if nd.is_br then acc else max acc cycle.(nd.nid))
          (-1) nodes
      in
      if brs <> [] then begin
        let dep_ready nid =
          List.fold_left
            (fun acc (p, lat) -> max acc (cycle.(p) + lat))
            0 preds.(nid)
        in
        if coupled then begin
          (* All BRs in the same cycle, as the last bundle of the block. *)
          let beta = ref (max 0 max_cycle) in
          List.iter (fun nid -> beta := max !beta (dep_ready nid)) brs;
          let fits_all t =
            List.for_all (fun nid -> fits nodes.(nid) t) brs
          in
          while not (fits_all !beta) do
            incr beta
          done;
          List.iter
            (fun nid ->
              cycle.(nid) <- !beta;
              occupy nodes.(nid) !beta)
            brs
        end
        else begin
          (* The last cycle of each core's other ops in the block. *)
          let last_on = Array.make n_cores (-1) in
          Array.iter
            (fun nd ->
              if not nd.is_br then
                List.iter (fun (c, _) -> last_on.(c) <- max last_on.(c) cycle.(nd.nid)) nd.slots)
            nodes;
          List.iter
            (fun nid ->
              let nd = nodes.(nid) in
              let core = match nd.slots with (c, _) :: _ -> c | [] -> assert false in
              (* The branch must close its core's block: after every other
                 op this core runs in the block. *)
              let t = ref (max (dep_ready nid) (max 0 last_on.(core))) in
              while not (fits nd !t) do
                incr t
              done;
              cycle.(nid) <- !t;
              occupy nd !t)
            brs
        end
      end;
      (* ----- emission ----- *)
      let total_len =
        Array.fold_left (fun acc nd -> max acc (cycle.(nd.nid) + 1)) 0 nodes
      in
      (* Each core's ops by cycle, in one pass over the nodes. *)
      let by_cycle = Array.init n_cores (fun _ -> Array.make total_len []) in
      Array.iter
        (fun nd ->
          let t = cycle.(nd.nid) in
          List.iter
            (fun (core, inst) -> by_cycle.(core).(t) <- inst :: by_cycle.(core).(t))
            nd.slots)
        nodes;
      List.iter
        (fun c ->
          let bundles = Array.to_list by_cycle.(c) in
          (* A decoupled schedule is compressed: no empty bundles. *)
          out.(c).(bi) <- (if coupled then bundles else List.filter (( <> ) []) bundles))
        participants)
    cfg.Cfg.blocks;
  { block_code = out; participants }
