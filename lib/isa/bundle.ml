type t = Inst.t list

let empty = []

(* A pattern match, not [i = Inst.Nop]: [Inst.t] has constructors with
   arguments, so [=] would be a polymorphic compare per op. *)
let is_nop = function Inst.Nop -> true | _ -> false

let is_empty t = List.for_all is_nop t

let is_comm inst = Inst.unit_class inst = Inst.Commun

let branch t = List.find_opt Inst.is_branch t

let count p t = List.fold_left (fun n i -> if p i then n + 1 else n) 0 t

let is_real_main i = not (is_comm i || is_nop i)

let legal ~issue_width ~comm_width t =
  count is_real_main t <= issue_width
  && count is_comm t <= comm_width
  && count Inst.is_branch t <= 1

let check ~issue_width ~comm_width t =
  if not (legal ~issue_width ~comm_width t) then
    invalid_arg
      (Format.asprintf "Bundle.check: illegal bundle {%a} for widths %d+%d"
         (Format.pp_print_list
            ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
            Inst.pp)
         t issue_width comm_width)

let defs t = List.concat_map Inst.defs t

let uses t = List.concat_map Inst.uses t

let pp ppf t =
  match t with
  | [] -> Format.pp_print_string ppf "nop"
  | ops ->
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " || ")
      Inst.pp ppf ops
