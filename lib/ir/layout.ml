type t = {
  bases : int array;
  sizes : int array;
  mutable top : int;
}

let round_up n align = (n + align - 1) / align * align

let compute ?(line_words = 8) (p : Hir.program) =
  let n = Array.length p.arrays in
  let bases = Array.make n 0 in
  let sizes = Array.make n 0 in
  let top = ref 0 in
  Array.iteri
    (fun i (decl : Hir.array_decl) ->
      bases.(i) <- !top;
      sizes.(i) <- decl.size;
      top := round_up (!top + decl.size) line_words)
    p.arrays;
  { bases; sizes; top = max !top line_words }

let base t arr = t.bases.(arr)
let array_size t arr = t.sizes.(arr)

let copy t = { t with top = t.top }

let scratch_alloc t n =
  let b = t.top in
  t.top <- t.top + n;
  b

let mem_size t = t.top

let mem_init t (p : Hir.program) =
  let len = ref 0 in
  Array.iteri
    (fun i (decl : Hir.array_decl) ->
      if Option.is_some decl.init then len := max !len (t.bases.(i) + decl.size))
    p.arrays;
  let image = Array.make !len 0 in
  Array.iteri
    (fun i (decl : Hir.array_decl) ->
      match decl.init with
      | None -> ()
      | Some f ->
        for k = 0 to decl.size - 1 do
          image.(t.bases.(i) + k) <- f k
        done)
    p.arrays;
  image
