type state = M | O | E | S | I

(* Each set is a small array of ways plus a recency stamp per way: the LRU
   order is "descending age", a promote is one store, and victim selection
   is a linear min scan — O(ways) worst case instead of the O(ways^2)
   list-splice representation this replaces, with the identical order
   (ages are all distinct: initial stamps are strictly decreasing by way
   index, replicating the original way-0-first order, and every promote
   uses a fresh tick). *)
type way = { mutable line : int; mutable state : state }

type set = {
  ways_arr : way array;
  age : int array;  (** recency stamp per way; larger = more recent *)
  mutable tick : int;  (** last stamp handed out *)
}

type t = { n_sets : int; n_ways : int; sets_arr : set array }

let is_pow2 n = n > 0 && n land (n - 1) = 0

let create ~sets ~ways =
  if not (is_pow2 sets) then invalid_arg "Cache.create: sets must be a power of two";
  if ways <= 0 then invalid_arg "Cache.create: ways must be positive";
  {
    n_sets = sets;
    n_ways = ways;
    sets_arr =
      Array.init sets (fun _ ->
          {
            ways_arr = Array.init ways (fun _ -> { line = -1; state = I });
            age = Array.init ways (fun i -> ways - 1 - i);
            tick = ways - 1;
          });
  }

let sets t = t.n_sets
let ways t = t.n_ways

let set_of t line = t.sets_arr.(line land (t.n_sets - 1))

(* Index of [line]'s valid way in [set], -1 when absent. Called on every
   cache probe, so it is a toplevel recursion returning an int: no closure,
   no option. *)
let rec find_way_from set line i =
  if i >= Array.length set.ways_arr then -1
  else
    let w = set.ways_arr.(i) in
    match w.state with
    | I -> find_way_from set line (i + 1)
    | M | O | E | S -> if w.line = line then i else find_way_from set line (i + 1)

let find_way set line = find_way_from set line 0

let promote set i =
  set.tick <- set.tick + 1;
  set.age.(i) <- set.tick

(* Each [Some] below is a static constant, so a probe allocates nothing. *)
let find t line =
  let set = set_of t line in
  let i = find_way set line in
  if i < 0 then None
  else
    match set.ways_arr.(i).state with
    | M -> Some M
    | O -> Some O
    | E -> Some E
    | S -> Some S
    | I -> None

let touch t line =
  let set = set_of t line in
  let i = find_way set line in
  if i >= 0 then promote set i

let set_state t line st =
  let set = set_of t line in
  let i = find_way set line in
  if i < 0 then raise Not_found else set.ways_arr.(i).state <- st

let insert t line st =
  let set = set_of t line in
  if find_way set line >= 0 then invalid_arg "Cache.insert: line already present";
  (* Prefer an invalid way; otherwise evict the minimum-age (LRU) way. *)
  let victim_way =
    let n = Array.length set.ways_arr in
    let rec invalid_loop i =
      if i >= n then None
      else if set.ways_arr.(i).state = I then Some i
      else invalid_loop (i + 1)
    in
    match invalid_loop 0 with
    | Some i -> i
    | None ->
      let best = ref 0 in
      for i = 1 to n - 1 do
        if set.age.(i) < set.age.(!best) then best := i
      done;
      !best
  in
  let w = set.ways_arr.(victim_way) in
  let victim = if w.state = I then None else Some (w.line, w.state) in
  w.line <- line;
  w.state <- st;
  promote set victim_way;
  victim

let invalidate t line =
  let set = set_of t line in
  let i = find_way set line in
  if i >= 0 then set.ways_arr.(i).state <- I

let valid_lines t =
  Array.to_list t.sets_arr
  |> List.concat_map (fun set ->
         Array.to_list set.ways_arr
         |> List.filter_map (fun w ->
                if w.state = I then None else Some (w.line, w.state)))

let pp_state ppf st =
  Format.pp_print_string ppf
    (match st with M -> "M" | O -> "O" | E -> "E" | S -> "S" | I -> "I")
