type t = {
  n : int;
  succ : (int, unit) Hashtbl.t array;
  pred : (int, unit) Hashtbl.t array;
}

let create n =
  {
    n;
    succ = Array.init n (fun _ -> Hashtbl.create 4);
    pred = Array.init n (fun _ -> Hashtbl.create 4);
  }

let n_nodes t = t.n

let check t v = if v < 0 || v >= t.n then invalid_arg "Digraph: bad node id"

let add_edge t u v =
  check t u;
  check t v;
  if not (Hashtbl.mem t.succ.(u) v) then begin
    Hashtbl.replace t.succ.(u) v ();
    Hashtbl.replace t.pred.(v) u ()
  end

let neighbours table v =
  Hashtbl.fold (fun k () acc -> k :: acc) table.(v) [] |> List.sort compare

let succs t v =
  check t v;
  neighbours t.succ v

let preds t v =
  check t v;
  neighbours t.pred v

(* Tarjan, iterative to survive large graphs. *)
let sccs t =
  let index = Array.make t.n (-1) in
  let lowlink = Array.make t.n 0 in
  let on_stack = Array.make t.n false in
  let stack = ref [] in
  let counter = ref 0 in
  let components = ref [] in
  let rec strongconnect v =
    index.(v) <- !counter;
    lowlink.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun w ->
        if index.(w) < 0 then begin
          strongconnect w;
          lowlink.(v) <- min lowlink.(v) lowlink.(w)
        end
        else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w))
      (succs t v);
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
  for v = 0 to t.n - 1 do
    if index.(v) < 0 then strongconnect v
  done;
  (* Tarjan emits components in reverse topological order; !components has
     the last-emitted first, which is topological order of the condensation.
     We return them so that dependences point from later to earlier indices
     reversed: keep natural order = emission order reversed. *)
  Array.of_list (List.rev !components)

let scc_index t =
  let comps = sccs t in
  let idx = Array.make t.n (-1) in
  Array.iteri (fun ci members -> List.iter (fun v -> idx.(v) <- ci) members) comps;
  idx

let condense t =
  let comps = sccs t in
  let idx = Array.make t.n (-1) in
  Array.iteri (fun ci members -> List.iter (fun v -> idx.(v) <- ci) members) comps;
  let dag = create (Array.length comps) in
  for u = 0 to t.n - 1 do
    List.iter
      (fun v -> if idx.(u) <> idx.(v) then add_edge dag idx.(u) idx.(v))
      (succs t u)
  done;
  (dag, idx)

let topo_sort t =
  let in_deg = Array.make t.n 0 in
  let has_self = ref false in
  for u = 0 to t.n - 1 do
    List.iter
      (fun v ->
        if u = v then has_self := true;
        in_deg.(v) <- in_deg.(v) + 1)
      (succs t u)
  done;
  if !has_self then None
  else begin
    let queue = Queue.create () in
    for v = 0 to t.n - 1 do
      if in_deg.(v) = 0 then Queue.add v queue
    done;
    let order = ref [] in
    let seen = ref 0 in
    while not (Queue.is_empty queue) do
      let v = Queue.pop queue in
      order := v :: !order;
      incr seen;
      List.iter
        (fun w ->
          in_deg.(w) <- in_deg.(w) - 1;
          if in_deg.(w) = 0 then Queue.add w queue)
        (succs t v)
    done;
    if !seen = t.n then Some (List.rev !order) else None
  end

let is_acyclic t = Option.is_some (topo_sort t)
