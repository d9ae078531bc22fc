module Ast = Voltron_lang.Ast
module Rng = Voltron_util.Rng

let nopos = { Ast.line = 0; col = 0 }

(* What a name means while we generate — mirrors the elaborator's
   bindings so every construction is legal by design. *)
type binding =
  | Scalar of string  (* assignable *)
  | Counter of string  (* do/while countdown: readable, never reassigned *)
  | Loop of string * int option
      (* loop variable; [Some l] when its values provably lie in [0, l) *)

let binding_name = function Scalar n | Counter n | Loop (n, _) -> n

type t = {
  rng : Rng.t;
  arrays : (string * int) array;  (* sizes are powers of two *)
  mutable fresh : int;
}

let fresh_var t prefix =
  t.fresh <- t.fresh + 1;
  Printf.sprintf "%s%d" prefix t.fresh

let readables env = List.map binding_name env

let assignables env =
  List.filter_map (function Scalar n -> Some n | _ -> None) env

(* --- Expressions ----------------------------------------------------------- *)

let binops =
  [|
    Ast.Add; Ast.Add; Ast.Sub; Ast.Sub; Ast.Mul; Ast.Div; Ast.Rem; Ast.And;
    Ast.Or; Ast.Xor; Ast.Shl; Ast.Shr; Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge;
    Ast.Eq; Ast.Ne; Ast.Land; Ast.Lor;
  |]

let rec expr t env depth =
  if depth <= 0 then leaf t env
  else
    match Rng.int t.rng 8 with
    | 0 | 1 | 2 ->
      Ast.Bin (Rng.pick t.rng binops, expr t env (depth - 1), expr t env (depth - 1))
    | 3 -> Ast.Neg (expr t env (depth - 1))
    | 4 ->
      Ast.Ternary (expr t env (depth - 1), expr t env (depth - 1), expr t env (depth - 1))
    | 5 | 6 ->
      let name, size = Rng.pick t.rng t.arrays in
      Ast.Index (name, index t env size, nopos)
    | _ -> leaf t env

and leaf t env =
  let names = readables env in
  if names = [] || Rng.bool t.rng then Ast.Int (Rng.in_range t.rng (-4) 16)
  else Ast.Var (Rng.pick t.rng (Array.of_list names), nopos)

(* A subscript that is in [0, size) on every evaluation. Three shapes:
   a constant; an affine form of a loop variable whose range fits; or an
   arbitrary expression masked with [size - 1] (size is a power of two,
   so the mask is total — this is also the generator's source of
   non-affine subscripts). *)
and index t env size =
  let bounded =
    List.filter_map
      (function Loop (n, Some l) when l <= size -> Some (n, l) | _ -> None)
      env
  in
  match Rng.int t.rng 4 with
  | 0 when bounded <> [] -> (
    let name, l = Rng.pick t.rng (Array.of_list bounded) in
    let slack = size - l in
    match Rng.int t.rng 3 with
    | 0 -> Ast.Var (name, nopos)
    | 1 when slack > 0 ->
      Ast.Bin (Ast.Add, Ast.Var (name, nopos), Ast.Int (Rng.int t.rng slack))
    | _ ->
      (* i scaled then wrapped: non-affine but still in bounds. *)
      Ast.Bin
        ( Ast.And,
          Ast.Bin (Ast.Mul, Ast.Var (name, nopos), Ast.Int (Rng.in_range t.rng 2 5)),
          Ast.Int (size - 1) ))
  | 1 -> Ast.Int (Rng.int t.rng size)
  | _ -> Ast.Bin (Ast.And, expr t env (Rng.in_range t.rng 1 2), Ast.Int (size - 1))

(* --- Statements ------------------------------------------------------------ *)

(* [stmts t env ~budget ~loop_depth] returns the generated block; [env]
   extensions stay local to the block, exactly as elaboration scopes
   them. *)
let rec stmts t env ~budget ~loop_depth =
  if budget <= 0 then []
  else
    let env', cost, ss = stmt t env ~budget ~loop_depth in
    ss @ stmts t env' ~budget:(budget - cost) ~loop_depth

and stmt t env ~budget ~loop_depth =
  match Rng.int t.rng 10 with
  | 0 | 1 ->
    (* Fresh declaration — or, sometimes, a deliberate shadow of an
       existing name (the front end allows it; the generator must too).
       Counters are never shadowed: a do/while decrement that resolved to
       a shadowing inner scalar would leave the real counter stuck. *)
    let name =
      let names =
        List.filter_map
          (function Scalar n | Loop (n, _) -> Some n | Counter _ -> None)
          env
      in
      if names <> [] && Rng.chance t.rng 0.12 then
        Rng.pick t.rng (Array.of_list names)
      else fresh_var t "v"
    in
    (* The shadowed binding must leave the downstream env: a loop
       variable's bound no longer holds once the name rebinds to an
       arbitrary scalar, so keeping it would let [index] emit an
       unmasked subscript through the shadow. *)
    let env' = List.filter (fun b -> binding_name b <> name) env in
    (env' @ [ Scalar name ], 1, [ Ast.Decl (name, expr t env 2, nopos) ])
  | 2 | 3 -> (
    match assignables env with
    | [] -> (env, 0, [])
    | names ->
      let name = Rng.pick t.rng (Array.of_list names) in
      (env, 1, [ Ast.Assign (name, expr t env 2, nopos) ]))
  | 4 | 5 ->
    let arr, size = Rng.pick t.rng t.arrays in
    (env, 1, [ Ast.Store (arr, index t env size, expr t env 2, nopos) ])
  | 6 ->
    let cond = expr t env 2 in
    let then_ = stmts t env ~budget:(min 3 budget) ~loop_depth in
    let else_ =
      if Rng.bool t.rng then [] else stmts t env ~budget:(min 2 budget) ~loop_depth
    in
    (env, 1 + List.length then_ + List.length else_, [ Ast.If (cond, then_, else_) ])
  | 7 | 8 when loop_depth < 2 -> for_loop t env ~budget ~loop_depth
  | 9 when loop_depth < 2 && budget >= 3 -> do_while t env ~budget ~loop_depth
  | _ ->
    let arr, size = Rng.pick t.rng t.arrays in
    (env, 1, [ Ast.Store (arr, index t env size, expr t env 1, nopos) ])

and for_loop t env ~budget ~loop_depth =
  let var = fresh_var t "i" in
  let limit =
    if loop_depth > 0 then Rng.in_range t.rng 2 8 else Rng.in_range t.rng 4 32
  in
  let init = if Rng.chance t.rng 0.2 then Rng.int t.rng 3 else 0 in
  let step = Rng.pick t.rng [| 1; 1; 1; 2; 3 |] in
  let benv = env @ [ Loop (var, Some limit) ] in
  let body_budget = min budget (Rng.in_range t.rng 1 4) in
  let body =
    match Rng.int t.rng 4 with
    | 0 ->
      (* DOALL/LLP idiom: each iteration owns element [i] of some array
         big enough to index affinely. *)
      let big =
        Array.of_list
          (List.filter (fun (_, size) -> size >= limit) (Array.to_list t.arrays))
      in
      if Array.length big = 0 then stmts t benv ~budget:body_budget ~loop_depth:(loop_depth + 1)
      else
        let arr, _ = Rng.pick t.rng big in
        Ast.Store (arr, Ast.Var (var, nopos), expr t benv 2, nopos)
        :: stmts t benv ~budget:(body_budget - 1) ~loop_depth:(loop_depth + 1)
    | 1 -> (
      (* Reduction or recurrence into an enclosing accumulator. *)
      match assignables env with
      | [] -> stmts t benv ~budget:body_budget ~loop_depth:(loop_depth + 1)
      | names ->
        let acc = Rng.pick t.rng (Array.of_list names) in
        let arr, size = Rng.pick t.rng t.arrays in
        let elt = Ast.Index (arr, index t benv size, nopos) in
        let update =
          if Rng.bool t.rng then Ast.Bin (Ast.Add, Ast.Var (acc, nopos), elt)
          else
            Ast.Bin
              ( Ast.Add,
                Ast.Bin (Ast.Mul, Ast.Var (acc, nopos), Ast.Int (Rng.in_range t.rng 2 5)),
                elt )
        in
        Ast.Assign (acc, update, nopos)
        :: stmts t benv ~budget:(body_budget - 1) ~loop_depth:(loop_depth + 1))
    | _ -> stmts t benv ~budget:body_budget ~loop_depth:(loop_depth + 1)
  in
  let body = if body = [] then [ dummy_store t benv ] else body in
  ( env,
    1 + List.length body,
    [
      Ast.For
        {
          var;
          init = Ast.Int init;
          limit = Ast.Int limit;
          step;
          body;
          pos = nopos;
        };
    ] )

(* do { body; n = n - 1; } while (n > 0); with [n] reserved so nothing in
   [body] can reassign it — termination by construction. *)
and do_while t env ~budget ~loop_depth =
  let n = fresh_var t "t" in
  let trips = Rng.in_range t.rng 2 8 in
  let benv = env @ [ Counter n ] in
  let body =
    stmts t benv ~budget:(min (budget - 2) 3) ~loop_depth:(loop_depth + 1)
  in
  let body =
    body
    @ [
        Ast.Assign (n, Ast.Bin (Ast.Sub, Ast.Var (n, nopos), Ast.Int 1), nopos);
      ]
  in
  (* [n] must be assignable in its own decrement but protected inside the
     generated body — so elaborate it as a Scalar in the enclosing block
     and only pass the [Counter] view down. *)
  ( env @ [ Counter n ],
    2 + List.length body,
    [
      Ast.Decl (n, Ast.Int trips, nopos);
      Ast.DoWhile (body, Ast.Bin (Ast.Gt, Ast.Var (n, nopos), Ast.Int 0));
    ] )

and dummy_store t env =
  let arr, size = Rng.pick t.rng t.arrays in
  Ast.Store (arr, index t env size, expr t env 1, nopos)

(* --- Programs --------------------------------------------------------------- *)

let array_sizes = [| 8; 16; 32; 64 |]

let gen_arrays t n =
  List.init n (fun k ->
      let name = Printf.sprintf "a%d" k in
      let size = Rng.pick t.rng array_sizes in
      let init =
        match Rng.int t.rng 3 with
        | 0 -> Ast.Zero
        | 1 ->
          let lo = Rng.in_range t.rng (-8) 0 in
          let hi = lo + Rng.in_range t.rng 1 63 in
          Ast.Random (lo, hi, Rng.int t.rng 1000)
        | _ ->
          let c = Rng.in_range t.rng 2 7 and m = Rng.in_range t.rng 5 97 in
          Ast.Fill
            (Ast.Bin
               ( Ast.Rem,
                 Ast.Bin (Ast.Mul, Ast.Var ("i", nopos), Ast.Int c),
                 Ast.Int m ))
      in
      { Ast.arr_name = name; arr_size = size; arr_init = init; arr_pos = nopos })

(* Flush every top-level scalar of the region into memory, so a diverging
   scalar computation is visible to the checksum. *)
let flush_scalars t block =
  let decls =
    List.filter_map (function Ast.Decl (x, _, _) -> Some x | _ -> None) block
  in
  let arr, size = t.arrays.(0) in
  block
  @ List.mapi
      (fun k x -> Ast.Store (arr, Ast.Int (k land (size - 1)), Ast.Var (x, nopos), nopos))
      decls

let gen_region t k ~budget =
  let body = stmts t [] ~budget ~loop_depth:0 in
  let body = if body = [] then [ dummy_store t [] ] else body in
  {
    Ast.reg_name = Printf.sprintf "r%d" k;
    reg_body = flush_scalars t body;
    reg_pos = nopos;
  }

let program ?(size = 24) ~seed () =
  let rng = Rng.create seed in
  let t = { rng; arrays = [||]; fresh = 0 } in
  let n_arrays = Rng.in_range rng 2 4 in
  let decls = gen_arrays t n_arrays in
  let t =
    { t with arrays = Array.of_list (List.map (fun d -> (d.Ast.arr_name, d.Ast.arr_size)) decls) }
  in
  let n_regions = Rng.in_range rng 1 3 in
  let budget = max 3 (size / n_regions) in
  {
    Ast.prog_name = Printf.sprintf "fuzz_s%d" seed;
    decls;
    regions = List.init n_regions (fun k -> gen_region t k ~budget);
  }

let render = Ast.to_string

let source_lines p =
  render p |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.length
