module Cfg = Voltron_ir.Cfg
module Depgraph = Voltron_analysis.Depgraph
module Memdep = Voltron_analysis.Memdep
module Profile = Voltron_analysis.Profile
module Digraph = Voltron_util.Digraph

type t = {
  core_of : int array;
  participants : int list;
}

(* --- Union-find ------------------------------------------------------------ *)

let uf_find parent i =
  let rec go i = if parent.(i) = i then i else go parent.(i) in
  let root = go i in
  let rec compress i =
    if parent.(i) <> root then begin
      let next = parent.(i) in
      parent.(i) <- root;
      compress next
    end
  in
  compress i;
  root

let uf_union parent a b =
  let ra = uf_find parent a and rb = uf_find parent b in
  if ra <> rb then parent.(ra) <- rb

let is_replicable (cfg : Cfg.t) (dg : Depgraph.t) i =
  Hashtbl.mem cfg.Cfg.replicable dg.Depgraph.ops.(i).Cfg.oid

(* [f a b] for every pair [a < b] of [mem], in lexicographic order, that
   may ever alias with a write involved. [mem] is in ascending op order. *)
let iter_alias_pairs ~(dg : Depgraph.t) ~memdep mem f =
  let op i = dg.Depgraph.ops.(i) in
  let writes = Array.map (fun i -> Memdep.is_write memdep (op i)) mem in
  Array.iteri
    (fun x a ->
      for y = x + 1 to Array.length mem - 1 do
        let b = mem.(y) in
        if (writes.(x) || writes.(y)) && Memdep.ever_alias memdep (op a) (op b)
        then f a b
      done)
    mem

(* The ops among [0 .. n-1] that satisfy [keep], ascending. *)
let ops_where n keep = Array.of_list (List.filter keep (List.init n Fun.id))

(* Pre-cluster: all defs of one virtual register stay together (a value
   lives on one home core); optionally, memory ops that may ever alias
   (with a write involved) stay together. *)
let clusters ~(dg : Depgraph.t) ~(cfg : Cfg.t) ~mem_together =
  let n = Array.length dg.Depgraph.ops in
  let parent = Array.init n (fun i -> i) in
  Hashtbl.iter
    (fun _v defs ->
      let defs = List.filter (fun i -> not (is_replicable cfg dg i)) defs in
      match defs with
      | [] | [ _ ] -> ()
      | first :: rest -> List.iter (fun d -> uf_union parent first d) rest)
    dg.Depgraph.defs_of;
  (match mem_together with
  | None -> ()
  | Some memdep ->
    let mem = ops_where n (fun i -> Memdep.is_mem memdep dg.Depgraph.ops.(i)) in
    iter_alias_pairs ~dg ~memdep mem (uf_union parent));
  parent

(* Cluster representative -> members (non-replicable ops only), with each
   cluster's total weight and highest critical-path priority, each summed
   once per cluster. *)
let cluster_members ~(dg : Depgraph.t) ~(cfg : Cfg.t) ~parent =
  let members = Hashtbl.create 16 in
  for i = 0 to Array.length dg.Depgraph.ops - 1 do
    if not (is_replicable cfg dg i) then begin
      let r = uf_find parent i in
      Hashtbl.replace members r
        (i :: Option.value ~default:[] (Hashtbl.find_opt members r))
    end
  done;
  let weight = Hashtbl.create 16 and priority = Hashtbl.create 16 in
  Hashtbl.iter
    (fun r ms ->
      Hashtbl.replace weight r
        (List.fold_left (fun acc i -> acc + dg.Depgraph.weight.(i)) 0 ms);
      Hashtbl.replace priority r
        (List.fold_left (fun acc i -> max acc dg.Depgraph.priority.(i)) 0 ms))
    members;
  (members, Hashtbl.find weight, Hashtbl.find priority)

(* Clusters in descending priority order. *)
let by_priority members priority =
  let reps = Hashtbl.fold (fun r _ acc -> r :: acc) members [] in
  List.sort (fun a b -> compare (priority b) (priority a)) reps

let participants_of core_of =
  let used = Hashtbl.create 4 in
  Array.iter (fun c -> if c >= 0 then Hashtbl.replace used c ()) core_of;
  Hashtbl.replace used 0 ();
  Hashtbl.fold (fun c () acc -> c :: acc) used [] |> List.sort compare

(* --- BUG ------------------------------------------------------------------- *)

(* Greedy placement of clusters in critical-path order. [extra_cut i j] is
   an additional penalty for separating nodes [i] and [j] (eBUG's
   miss-affinity weights). *)
let greedy ~n_cores ~comm_latency ~(dg : Depgraph.t) ~(cfg : Cfg.t) ~parent
    ~extra_cut =
  let core_of = Array.make (Array.length dg.Depgraph.ops) (-1) in
  let members, cluster_weight, priority = cluster_members ~dg ~cfg ~parent in
  let core_ready = Array.make n_cores 0 in
  let cluster_core = Hashtbl.create 16 in
  let cluster_finish = Hashtbl.create 16 in
  (* The cluster's placed inputs, from the dependence edges into its
     members: each input's core, its finish time, and when it reaches
     another core. *)
  let inputs r =
    List.concat_map
      (fun i ->
        List.filter_map
          (fun (p, _) ->
            if is_replicable cfg dg p then None
            else
              let rp = uf_find parent p in
              match Hashtbl.find_opt cluster_core rp with
              | Some pc when rp <> r ->
                let pf = Hashtbl.find cluster_finish rp in
                Some (pc, pf, pf + comm_latency + extra_cut p i)
              | Some _ | None -> None)
          dg.Depgraph.preds.(i))
      (Hashtbl.find members r)
  in
  List.iter
    (fun r ->
      let weight = cluster_weight r in
      let inputs = inputs r in
      (* When the cluster's inputs reach each core. *)
      let dep_ready =
        Array.init n_cores (fun core ->
            List.fold_left
              (fun acc (pc, local, remote) -> max acc (if pc <> core then remote else local))
              0 inputs)
      in
      let best_core = ref 0 and best_cost = ref max_int in
      for core = 0 to n_cores - 1 do
        let start = max core_ready.(core) dep_ready.(core) in
        let cost = start + weight in
        if cost < !best_cost then begin
          best_cost := cost;
          best_core := core
        end
      done;
      let core = !best_core in
      Hashtbl.replace cluster_core r core;
      let finish = max core_ready.(core) dep_ready.(core) + weight in
      Hashtbl.replace cluster_finish r finish;
      core_ready.(core) <- finish;
      List.iter (fun i -> core_of.(i) <- core) (Hashtbl.find members r))
    (by_priority members priority);
  { core_of; participants = participants_of core_of }

(* Refinement sweep (the paper's second BUG pass): with the full
   assignment known, re-place each cluster where its schedule-time
   estimate — local work per core plus communication with its actual
   neighbours — is lowest. One sweep in descending priority order. *)
let refine ~n_cores ~comm_latency ~(dg : Depgraph.t) ~(cfg : Cfg.t) ~parent
    (initial : t) =
  let core_of = Array.copy initial.core_of in
  let members, cluster_weight, priority = cluster_members ~dg ~cfg ~parent in
  (* Per-core load under the current assignment. *)
  let load = Array.make n_cores 0 in
  Hashtbl.iter
    (fun r ms ->
      match ms with
      | m :: _ when core_of.(m) >= 0 ->
        load.(core_of.(m)) <- load.(core_of.(m)) + cluster_weight r
      | _ -> ())
    members;
  (* [comm.(c)]: the edges, in both directions, between the cluster's
     members and ops of other clusters currently on core [c]. *)
  let comm = Array.make n_cores 0 in
  let count_edges r edges =
    List.iter
      (fun (j, _) ->
        if (not (is_replicable cfg dg j)) && uf_find parent j <> r then
          comm.(core_of.(j)) <- comm.(core_of.(j)) + 1)
      edges
  in
  List.iter
    (fun r ->
      match Hashtbl.find members r with
      | [] -> ()
      | m :: _ as ms ->
        let here = core_of.(m) in
        let w = cluster_weight r in
        Array.fill comm 0 n_cores 0;
        List.iter
          (fun i ->
            count_edges r dg.Depgraph.preds.(i);
            count_edges r dg.Depgraph.succs.(i))
          ms;
        let total = Array.fold_left ( + ) 0 comm in
        (* Cost of placing the cluster on [core]: that core's load plus
           the latency of every edge that would then cross cores, less
           the edges to [core] itself once more, as they become local. *)
        let cost =
          Array.init n_cores (fun core ->
              let base = if core = here then load.(core) else load.(core) + w in
              base
              + ((total - comm.(core)) * comm_latency)
              - (comm.(core) * comm_latency))
        in
        (* [here] unless another core is strictly cheaper; lower ids first. *)
        let best = ref here in
        Array.iteri (fun core c -> if c < cost.(!best) then best := core) cost;
        let best = !best in
        if best <> here then begin
          load.(here) <- load.(here) - w;
          load.(best) <- load.(best) + w;
          List.iter (fun i -> core_of.(i) <- best) ms
        end)
    (by_priority members priority);
  { core_of; participants = participants_of core_of }

let bug ~n_cores ~comm_latency ~dg ~cfg =
  let parent = clusters ~dg ~cfg ~mem_together:None in
  let first =
    greedy ~n_cores ~comm_latency ~dg ~cfg ~parent ~extra_cut:(fun _ _ -> 0)
  in
  refine ~n_cores ~comm_latency ~dg ~cfg ~parent first

let ebug ~n_cores ~comm_latency ~dg ~cfg ~memdep ~profile =
  let parent = clusters ~dg ~cfg ~mem_together:(Some memdep) in
  let n = Array.length dg.Depgraph.ops in
  (* Miss-affinity: breaking the edge from a likely-missing load to its
     consumer stalls both cores (paper §4.1), so weight it heavily. *)
  let miss_weight = Array.make n 0 in
  Array.iteri
    (fun i (op : Cfg.lop) ->
      match op.Cfg.inst with
      | Voltron_isa.Inst.Load _ when op.Cfg.hir_sid >= 0 ->
        let rate = Profile.miss_rate profile op.Cfg.hir_sid in
        if rate > 0.05 then
          miss_weight.(i) <- int_of_float (rate *. 30.)
      | _ -> ())
    dg.Depgraph.ops;
  let extra_cut p _i = miss_weight.(p) in
  greedy ~n_cores ~comm_latency ~dg ~cfg ~parent ~extra_cut

(* --- DSWP ------------------------------------------------------------------ *)

let dswp ~n_cores ~(dg : Depgraph.t) ~(cfg : Cfg.t) ~memdep =
  let n = Array.length dg.Depgraph.ops in
  if n = 0 then None
  else begin
    let repl = Array.init n (is_replicable cfg dg) in
    (* Register flow including loop-carried (def -> every use, both
       directions of program order) and def-def; memory ever-alias pairs
       in both directions so they condense into one SCC. *)
    let edges = ref [] in
    let add u v = edges := (u, v) :: !edges in
    Hashtbl.iter
      (fun v defs ->
        let uses = Option.value ~default:[] (Hashtbl.find_opt dg.Depgraph.uses_of v) in
        List.iter
          (fun d ->
            if not repl.(d) then begin
              List.iter (fun u -> if u <> d && not repl.(u) then add d u) uses;
              List.iter (fun d2 -> if d2 <> d && not repl.(d2) then add d d2) defs
            end)
          defs)
      dg.Depgraph.defs_of;
    let mem =
      ops_where n (fun i -> (not repl.(i)) && Memdep.is_mem memdep dg.Depgraph.ops.(i))
    in
    iter_alias_pairs ~dg ~memdep mem (fun a b ->
        add a b;
        add b a);
    let dag, comp_of = Digraph.condense (Digraph.of_edges n !edges) in
    let order =
      match Digraph.topo_sort dag with
      | Some o -> o
      | None -> assert false (* condensation is acyclic *)
    in
    (* Drop pure-replicable singleton components (they are assigned to all
       cores anyway). *)
    let comp_weight = Array.make (Digraph.n_nodes dag) 0 in
    for i = 0 to n - 1 do
      if not repl.(i) then
        comp_weight.(comp_of.(i)) <- comp_weight.(comp_of.(i)) + dg.Depgraph.weight.(i)
    done;
    let stages = List.filter (fun c -> comp_weight.(c) > 0) order in
    if List.length stages < 2 || n_cores < 2 then None
    else begin
      let total = List.fold_left (fun acc c -> acc + comp_weight.(c)) 0 stages in
      let target = float_of_int total /. float_of_int n_cores in
      (* Contiguous split in topological order: close a stage group once
         it reaches the average weight. Weightless components stay with
         stage 0. *)
      let stage_of_comp = Array.make (Digraph.n_nodes dag) 0 in
      let core = ref 0 and acc = ref 0 in
      List.iter
        (fun c ->
          stage_of_comp.(c) <- !core;
          acc := !acc + comp_weight.(c);
          if float_of_int !acc >= target && !core < n_cores - 1 then begin
            incr core;
            acc := 0
          end)
        stages;
      let used_cores = !core + 1 in
      if used_cores < 2 then None
      else begin
        let core_of = Array.make n (-1) in
        for i = 0 to n - 1 do
          if not repl.(i) then core_of.(i) <- stage_of_comp.(comp_of.(i))
        done;
        let max_stage = Array.make used_cores 0 in
        for i = 0 to n - 1 do
          if core_of.(i) >= 0 then
            max_stage.(core_of.(i)) <- max_stage.(core_of.(i)) + dg.Depgraph.weight.(i)
        done;
        (* Charge cross-stage value flow to both end stages: each crossing
           costs a SEND slot on the producer and a RECV (plus its read
           latency) on the consumer, every iteration. Without this the
           estimator habitually out-bids coupled ILP on loops it then
           loses. *)
        Hashtbl.iter
          (fun v defs ->
            let uses =
              Option.value ~default:[] (Hashtbl.find_opt dg.Depgraph.uses_of v)
            in
            List.iter
              (fun d ->
                if core_of.(d) >= 0 then begin
                  let use_stages =
                    List.sort_uniq compare
                      (List.filter_map
                         (fun u ->
                           if core_of.(u) >= 0 && core_of.(u) <> core_of.(d) then
                             Some core_of.(u)
                           else None)
                         uses)
                  in
                  List.iter
                    (fun s ->
                      max_stage.(core_of.(d)) <- max_stage.(core_of.(d)) + 1;
                      max_stage.(s) <- max_stage.(s) + 2)
                    use_stages
                end)
              defs)
          dg.Depgraph.defs_of;
        let bottleneck = Array.fold_left max 1 max_stage in
        let estimate = float_of_int total /. float_of_int (bottleneck + 3) in
        Some ({ core_of; participants = participants_of core_of }, estimate)
      end
    end
  end
