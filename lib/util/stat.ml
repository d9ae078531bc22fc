let sum = List.fold_left ( +. ) 0.

let mean = function
  | [] -> 0.
  | xs -> sum xs /. float_of_int (List.length xs)

let geomean = function
  | [] -> 0.
  | xs ->
    let logs = List.map (fun x -> assert (x > 0.); log x) xs in
    exp (mean logs)

let normalize xs =
  let total = sum xs in
  if total = 0. then xs else List.map (fun x -> x /. total) xs

let percent part whole = if whole = 0. then 0. else 100. *. part /. whole
