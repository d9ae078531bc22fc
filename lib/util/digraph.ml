(* node -> successors, ascending, no duplicates *)
type t = int array array

let of_edges n edges =
  let succ = Array.make n [] in
  List.iter
    (fun (u, v) ->
      if u < 0 || u >= n || v < 0 || v >= n then invalid_arg "Digraph: bad node id";
      succ.(u) <- v :: succ.(u))
    edges;
  Array.map (fun vs -> Array.of_list (List.sort_uniq compare vs)) succ

let n_nodes = Array.length

(* Tarjan, recursive: the walk's depth is bounded by the longest simple
   path. *)
let sccs t =
  let n = Array.length t in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let counter = ref 0 in
  let components = ref [] in
  let rec strongconnect v =
    index.(v) <- !counter;
    lowlink.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    on_stack.(v) <- true;
    Array.iter
      (fun w ->
        if index.(w) < 0 then begin
          strongconnect w;
          lowlink.(v) <- min lowlink.(v) lowlink.(w)
        end
        else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w))
      t.(v);
    if lowlink.(v) = index.(v) then begin
      let rec popped acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
          stack := rest;
          on_stack.(w) <- false;
          if w = v then w :: acc else popped (w :: acc)
      in
      components := popped [] :: !components
    end
  in
  for v = 0 to n - 1 do
    if index.(v) < 0 then strongconnect v
  done;
  (* A component completes only after every component it reaches, so
     completion order is sinks first. *)
  Array.of_list (List.rev !components)

let condense t =
  let comps = sccs t in
  let idx = Array.make (Array.length t) (-1) in
  Array.iteri (fun ci members -> List.iter (fun v -> idx.(v) <- ci) members) comps;
  let edges = ref [] in
  Array.iteri
    (fun u vs ->
      Array.iter
        (fun v -> if idx.(u) <> idx.(v) then edges := (idx.(u), idx.(v)) :: !edges)
        vs)
    t;
  (of_edges (Array.length comps) !edges, idx)

(* Kahn's algorithm. A node on a cycle, a self-edge included, never
   reaches in-degree 0, so it is never emitted. *)
let topo_sort t =
  let n = Array.length t in
  let in_deg = Array.make n 0 in
  Array.iter (Array.iter (fun v -> in_deg.(v) <- in_deg.(v) + 1)) t;
  let queue = Queue.create () in
  for v = 0 to n - 1 do
    if in_deg.(v) = 0 then Queue.add v queue
  done;
  let order = ref [] in
  let seen = ref 0 in
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    order := v :: !order;
    incr seen;
    Array.iter
      (fun w ->
        in_deg.(w) <- in_deg.(w) - 1;
        if in_deg.(w) = 0 then Queue.add w queue)
      t.(v)
  done;
  if !seen = n then Some (List.rev !order) else None
