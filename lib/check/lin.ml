(* Linear counting forms: const + sum of coeff * symbolic variable.
   Variables are strings; a product of variables is canonicalised into a
   single '*'-joined sorted name, so forms stay closed under
   multiplication and structural equality is semantic equality. *)

type t = {
  const : int;
  terms : (string * int) list;  (* sorted by variable, no zero coeffs *)
}

let normalize terms =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (v, k) ->
      Hashtbl.replace tbl v (k + Option.value ~default:0 (Hashtbl.find_opt tbl v)))
    terms;
  Hashtbl.fold (fun v k acc -> if k = 0 then acc else (v, k) :: acc) tbl []
  |> List.sort compare

let zero = { const = 0; terms = [] }
let const_ c = { const = c; terms = [] }
let var_ v = { const = 0; terms = [ (v, 1) ] }
let is_const t = if t.terms = [] then Some t.const else None
let equal a b = a.const = b.const && a.terms = b.terms

let add a b = { const = a.const + b.const; terms = normalize (a.terms @ b.terms) }

let add_const t c = { t with const = t.const + c }

let scale k t =
  if k = 0 then zero
  else { const = k * t.const; terms = List.map (fun (v, c) -> (v, k * c)) t.terms }

(* Canonical name of a product of (possibly already composite) variables. *)
let prod_name v w =
  String.concat "*"
    (List.sort compare (String.split_on_char '*' v @ String.split_on_char '*' w))

let mul_var v t =
  let terms =
    (if t.const = 0 then [] else [ (v, t.const) ])
    @ List.map (fun (w, k) -> (prod_name v w, k)) t.terms
  in
  { const = 0; terms = normalize terms }

(* Pointwise lower bound: min of the constants and of each variable's
   coefficient (absent = 0). For the checker's counts — where every term
   is a nonnegative number of messages — this is the part of two joining
   paths' counts that both are guaranteed to have. *)
let min_ a b =
  let coeff v t = Option.value ~default:0 (List.assoc_opt v t.terms) in
  let vars = List.sort_uniq compare (List.map fst (a.terms @ b.terms)) in
  {
    const = min a.const b.const;
    terms =
      List.filter_map
        (fun v ->
          let k = min (coeff v a) (coeff v b) in
          if k = 0 then None else Some (v, k))
        vars;
  }

let drop_var v t = { t with terms = List.remove_assoc v t.terms }

let mul a b =
  List.fold_left
    (fun acc (v, k) -> add acc (scale k (mul_var v b)))
    (scale a.const b) a.terms

let pp ppf t =
  match (t.const, t.terms) with
  | c, [] -> Format.pp_print_int ppf c
  | c, terms ->
    let pp_term ~first ppf (v, k) =
      if k < 0 then Format.fprintf ppf " - "
      else if not first then Format.fprintf ppf " + ";
      let k = abs k in
      if k = 1 then Format.pp_print_string ppf v
      else Format.fprintf ppf "%d*%s" k v
    in
    let first = c = 0 in
    if not first then Format.pp_print_int ppf c;
    List.iteri
      (fun i term -> pp_term ~first:(first && i = 0) ppf term)
      terms

let to_string t = Format.asprintf "%a" pp t
