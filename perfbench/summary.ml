(* Order statistics the benchmark reports: medians, the tail-percentile
   rule and the paper's speedup geomean. *)

(* Nearest rank of a percentile, in integer per-mille so that no rounding
   moves it: the smallest rank with at least [permille]/1000 of [n]
   samples at or below it. *)
let rank n permille = max 1 (((permille * n) + 999) / 1000)

let sorted_copy xs =
  let a = Array.copy xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted_copy xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Summary.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Harrell-Davis estimate of the [q] quantile: a weighted mean of every
   order statistic, the weights being the mass of a Beta(q(n+1),
   (1-q)(n+1)) density over each rank's interval [(i-1)/n, i/n]. Unlike
   one sample picked by rank, it does not jump when noise swaps two
   neighbouring samples, which in a small set of unequal ops moves the
   nearest-rank median by the gap between them. *)
let harrell_davis sorted q =
  let n = Array.length sorted in
  let a = q *. float_of_int (n + 1) and b = (1. -. q) *. float_of_int (n + 1) in
  let log_density x = ((a -. 1.) *. log x) +. ((b -. 1.) *. log (1. -. x)) in
  (* midpoint rule, [steps] points per rank interval, scaled by the
     density's peak so that nothing underflows *)
  let steps = 16 in
  let x k = (float_of_int k +. 0.5) /. float_of_int (n * steps) in
  let peak = ref neg_infinity in
  for k = 0 to (n * steps) - 1 do
    peak := Float.max !peak (log_density (x k))
  done;
  let mass = Array.make n 0. in
  for k = 0 to (n * steps) - 1 do
    mass.(k / steps) <- mass.(k / steps) +. exp (log_density (x k) -. !peak)
  done;
  let weighted = ref 0. in
  Array.iteri (fun i w -> weighted := !weighted +. (w *. sorted.(i))) mass;
  !weighted /. Array.fold_left ( +. ) 0. mass

(* The tail is read on a fixed ladder, so the percentile reported depends
   only on the sample count, never on the samples. *)
let ladder = [ 999; 990; 950; 900; 750; 500 ]
let min_beyond = 10

type tail = { t_pct : float; t_value : float; t_beyond : int; t_samples : int }

(* The highest ladder percentile with at least [min_beyond] samples
   strictly above its rank. [None] when even the median lacks them: too
   few samples to speak of a tail. *)
let tail xs =
  let a = sorted_copy xs in
  let n = Array.length a in
  List.find_map
    (fun q ->
      let beyond = n - rank n q in
      if n > 0 && beyond >= min_beyond then
        Some
          {
            t_pct = float_of_int q /. 10.;
            t_value = harrell_davis a (float_of_int q /. 1000.);
            t_beyond = beyond;
            t_samples = n;
          }
      else None)
    ladder

(* The paper's metric: geomean over programs of 1-core sequential cycles
   divided by N-core cycles. *)
let speedup_geomean pairs =
  Voltron_util.Stat.geomean
    (List.map (fun (base, cycles) -> float_of_int base /. float_of_int cycles) pairs)
