type state = M | O | E | S | I

(* Flat tag store: slot [set * ways + way] of each array describes one way.
   An [I] slot's tag is stale and never matches a probe. LRU is a recency
   stamp per slot drawn from one per-cache clock (larger = more recent): a
   promote is one store and victim selection a min scan over the set.

   Stamps start at 0 and that is exact: a fill takes the first invalid way,
   so the min scan only runs on a full set, and every way of a full set was
   stamped by its own fill — an initial stamp never picks a victim. Within
   a set the clock orders promotes exactly as a per-set counter would. *)
type t = {
  n_sets : int;
  n_ways : int;
  tags : int array;
  states : state array;
  stamps : int array;
  mutable clock : int;  (** last stamp handed out *)
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let create ~sets ~ways =
  if not (is_pow2 sets) then invalid_arg "Cache.create: sets must be a power of two";
  if ways <= 0 then invalid_arg "Cache.create: ways must be positive";
  let n = sets * ways in
  {
    n_sets = sets;
    n_ways = ways;
    tags = Array.make n 0;
    states = Array.make n I;
    stamps = Array.make n 0;
    clock = 0;
  }

let sets t = t.n_sets
let ways t = t.n_ways

let base t line = (line land (t.n_sets - 1)) * t.n_ways

(* Called on every cache probe, so it is a toplevel recursion returning an
   int: no closure, no option. *)
let rec slot_from t line i stop =
  if i >= stop then -1
  else if t.tags.(i) = line then
    match t.states.(i) with
    | I -> slot_from t line (i + 1) stop
    | M | O | E | S -> i
  else slot_from t line (i + 1) stop

let slot t line =
  let b = base t line in
  slot_from t line b (b + t.n_ways)

let slot_state t i = t.states.(i)

let touch_slot t i =
  t.clock <- t.clock + 1;
  t.stamps.(i) <- t.clock

let set_slot_state t i st = t.states.(i) <- st

(* Each [Some] below is a static constant, so a probe allocates nothing. *)
let find t line =
  let i = slot t line in
  if i < 0 then None
  else
    match t.states.(i) with
    | M -> Some M
    | O -> Some O
    | E -> Some E
    | S -> Some S
    | I -> None

let touch t line =
  let i = slot t line in
  if i >= 0 then touch_slot t i

let set_state t line st =
  let i = slot t line in
  if i < 0 then raise Not_found else t.states.(i) <- st

let rec first_invalid t i stop =
  if i >= stop then -1
  else match t.states.(i) with I -> i | M | O | E | S -> first_invalid t (i + 1) stop

let insert t line st =
  let b = base t line in
  let stop = b + t.n_ways in
  if slot_from t line b stop >= 0 then invalid_arg "Cache.insert: line already present";
  (* Prefer an invalid way; otherwise evict the minimum-stamp (LRU) way. *)
  let v =
    let i = first_invalid t b stop in
    if i >= 0 then i
    else begin
      let best = ref b in
      for i = b + 1 to stop - 1 do
        if t.stamps.(i) < t.stamps.(!best) then best := i
      done;
      !best
    end
  in
  let victim =
    match t.states.(v) with
    | I -> None
    | (M | O | E | S) as vs -> Some (t.tags.(v), vs)
  in
  t.tags.(v) <- line;
  t.states.(v) <- st;
  touch_slot t v;
  victim

let invalidate t line =
  let i = slot t line in
  if i >= 0 then t.states.(i) <- I

let valid_lines t =
  let acc = ref [] in
  for i = Array.length t.tags - 1 downto 0 do
    match t.states.(i) with
    | I -> ()
    | (M | O | E | S) as st -> acc := (t.tags.(i), st) :: !acc
  done;
  !acc

let pp_state ppf st =
  Format.pp_print_string ppf
    (match st with M -> "M" | O -> "O" | E -> "E" | S -> "S" | I -> "I")
