type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let copy t = { state = t.state }

(* SplitMix64 output finalizer: a bijective avalanche over the stream
   counter. *)
let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next_u64 t =
  t.state <- Int64.add t.state golden;
  mix t.state

let next t = Int64.to_int (Int64.shift_right_logical (next_u64 t) 2)

let int t bound =
  assert (bound > 0);
  next t mod bound

let in_range t lo hi =
  assert (lo <= hi);
  lo + int t (hi - lo + 1)

(* The k-th output after state [s0] is [mix (s0 + (k+1) * golden)], so n
   draws can be handed out by index and the generator skipped past them
   in one step. *)
let range_stream t ~n ~lo ~hi =
  assert (lo <= hi && n >= 0);
  let s0 = t.state and bound = hi - lo + 1 in
  t.state <- Int64.add s0 (Int64.mul golden (Int64.of_int n));
  fun k ->
    let z = mix (Int64.add s0 (Int64.mul golden (Int64.of_int (k + 1)))) in
    lo + (Int64.to_int (Int64.shift_right_logical z 2) mod bound)

let float t bound =
  let x = Int64.to_float (Int64.shift_right_logical (next_u64 t) 11) in
  bound *. (x /. 9007199254740992.0)

let bool t = Int64.logand (next_u64 t) 1L = 1L

let chance t p = float t 1.0 < p

let pick t a =
  assert (Array.length a > 0);
  a.(int t (Array.length a))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let split t i =
  assert (i >= 0);
  (* Indexed stream split: double-mix the parent state offset by the
     (i+1)-th golden-ratio increment. The double finalizer decorrelates
     child streams from each other and from the parent's own output
     sequence (a single mix would make child i's state equal the
     parent's (i+1)-th output). Pure: does not advance [t]. *)
  { state = mix (mix (Int64.add t.state (Int64.mul golden (Int64.of_int (i + 1))))) }
