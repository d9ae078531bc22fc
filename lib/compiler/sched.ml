module Inst = Voltron_isa.Inst
module Bundle = Voltron_isa.Bundle
module Cfg = Voltron_ir.Cfg
module Depgraph = Voltron_analysis.Depgraph
module Config = Voltron_machine.Config
module Mesh = Voltron_net.Mesh
module Vec = Voltron_util.Vec

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
    match Inst.defs dg.Depgraph.ops.(i).Cfg.inst with
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
  (* ----- per block ----- *)
  Array.iteri
    (fun bi (block : Cfg.block) ->
      let b = { nodes = Vec.create (); edges = [] } in
      (* node ids for (op, core); replicable ops get one per participant. *)
      let op_node : (int * int, int) Hashtbl.t = Hashtbl.create 32 in
      let lat_of i = dg.Depgraph.weight.(i) in
      List.iter
        (fun i ->
          let op = dg.Depgraph.ops.(i) in
          if replicable i then
            List.iter
              (fun c ->
                let nid = new_node b ~out_lat:(lat_of i) [ (c, op.Cfg.inst) ] in
                Hashtbl.replace op_node (i, c) nid)
              participants
          else begin
            let c = core_of i in
            let nid = new_node b ~out_lat:(lat_of i) [ (c, op.Cfg.inst) ] in
            Hashtbl.replace op_node (i, c) nid
          end)
        block_ops.(bi);
      (* Intra-block dependence edges, mapped through replication: a
         replicated end pairs with the other end's copy on the same core. *)
      List.iter
        (fun { Depgraph.e_src = p; e_dst = q; e_lat } ->
          if dg.Depgraph.block_of.(p) = bi && dg.Depgraph.block_of.(q) = bi then
            if not (replicable p || replicable q) then
              add_edge b
                (Hashtbl.find op_node (p, core_of p))
                (Hashtbl.find op_node (q, core_of q))
                e_lat
            else
              List.iter
                (fun c ->
                  match (Hashtbl.find_opt op_node (p, c), Hashtbl.find_opt op_node (q, c)) with
                  | Some np, Some nq -> add_edge b np nq e_lat
                  | _ -> ())
                (if not (replicable p) then [ core_of p ]
                 else if not (replicable q) then [ core_of q ]
                 else participants))
        dg.Depgraph.edges;
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
              let nu = Hashtbl.find op_node (u, c) in
              let uses_v = List.mem v (Inst.uses dg.Depgraph.ops.(u).Cfg.inst) in
              let defines_v = List.mem v (Inst.defs dg.Depgraph.ops.(u).Cfg.inst) in
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
          let v = List.hd (Inst.defs dg.Depgraph.ops.(i).Cfg.inst) in
          let home = core_of i in
          let def_node = Hashtbl.find op_node (i, home) in
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
        else if replicable reach || c = core_of reach then Hashtbl.find_opt op_node (reach, c)
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
      let main_used : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
      let comm_used : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
      let slot_count tbl key = Option.value ~default:0 (Hashtbl.find_opt tbl key) in
      let fits node t =
        List.for_all
          (fun (c, _) ->
            if node.is_comm then
              slot_count comm_used (c, t) < machine.Config.comm_width
            else slot_count main_used (c, t) < machine.Config.issue_width)
          node.slots
      in
      let occupy node t =
        List.iter
          (fun (c, _) ->
            let tbl = if node.is_comm then comm_used else main_used in
            Hashtbl.replace tbl (c, t) (slot_count tbl (c, t) + 1))
          node.slots
      in
      let unsched =
        ref (Array.fold_left (fun acc nd -> if nd.is_br then acc else acc + 1) 0 nodes)
      in
      while !unsched > 0 do
        (* Ready non-branch nodes. *)
        let best = ref None in
        Array.iter
          (fun nd ->
            if (not nd.is_br) && cycle.(nd.nid) < 0 then begin
              let ready =
                List.for_all (fun (p, _) -> nodes.(p).is_br || cycle.(p) >= 0) preds.(nd.nid)
              in
              if ready then
                match !best with
                | Some (bn, _) when prio.(bn) >= prio.(nd.nid) -> ()
                | Some _ | None -> best := Some (nd.nid, nd)
            end)
          nodes;
        match !best with
        | None -> failwith "Sched: dependence cycle in block graph"
        | Some (nid, nd) ->
          let earliest =
            List.fold_left
              (fun acc (p, lat) ->
                if nodes.(p).is_br then acc else max acc (cycle.(p) + lat))
              0 preds.(nid)
          in
          let t = ref earliest in
          while not (fits nd !t) do
            incr t
          done;
          cycle.(nid) <- !t;
          occupy nd !t;
          decr unsched
      done;
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
        else
          List.iter
            (fun nid ->
              let nd = nodes.(nid) in
              let core = match nd.slots with (c, _) :: _ -> c | [] -> assert false in
              (* The branch must close its core's block: after every other
                 op this core runs in the block. *)
              let last_here =
                Array.fold_left
                  (fun acc other ->
                    if other.is_br then acc
                    else if List.exists (fun (c, _) -> c = core) other.slots then
                      max acc cycle.(other.nid)
                    else acc)
                  (-1) nodes
              in
              let t = ref (max (dep_ready nid) (max 0 last_here)) in
              while not (fits nd !t) do
                incr t
              done;
              cycle.(nid) <- !t;
              occupy nd !t)
            brs
      end;
      (* ----- emission ----- *)
      let total_len =
        Array.fold_left (fun acc nd -> max acc (cycle.(nd.nid) + 1)) 0 nodes
      in
      List.iter
        (fun c ->
          (* This core's ops by cycle. *)
          let by_cycle = Array.make total_len [] in
          Array.iter
            (fun nd ->
              List.iter
                (fun (core, inst) ->
                  let t = cycle.(nd.nid) in
                  if core = c then by_cycle.(t) <- inst :: by_cycle.(t))
                nd.slots)
            nodes;
          let bundles = Array.to_list by_cycle in
          (* A decoupled schedule is compressed: no empty bundles. *)
          out.(c).(bi) <- (if coupled then bundles else List.filter (( <> ) []) bundles))
        participants)
    cfg.Cfg.blocks;
  { block_code = out; participants }
