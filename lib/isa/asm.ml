exception Error of int * string

let fail line msg = raise (Error (line, msg))

(* --- Small string helpers ---------------------------------------------------- *)

let trim = String.trim

let split_on_string sep s =
  let ls = String.length sep and l = String.length s in
  let parts = ref [] and start = ref 0 in
  let i = ref 0 in
  while !i + ls <= l do
    if String.sub s !i ls = sep then begin
      parts := String.sub s !start (!i - !start) :: !parts;
      i := !i + ls;
      start := !i
    end
    else incr i
  done;
  parts := String.sub s !start (l - !start) :: !parts;
  List.rev !parts

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let strip_prefix line prefix s =
  if starts_with prefix s then trim (String.sub s (String.length prefix) (String.length s - String.length prefix))
  else fail line (Printf.sprintf "expected '%s...'" prefix)

(* --- Operand parsing ----------------------------------------------------------- *)

let parse_int line s =
  match int_of_string_opt (trim s) with
  | Some i -> i
  | None -> fail line (Printf.sprintf "expected an integer, found %S" (trim s))

let parse_reg line s =
  let s = trim s in
  if starts_with "r" s then parse_int line (String.sub s 1 (String.length s - 1))
  else fail line (Printf.sprintf "expected a register rN, found %S" s)

let parse_btr line s =
  let s = trim s in
  if starts_with "b" s then parse_int line (String.sub s 1 (String.length s - 1))
  else fail line (Printf.sprintf "expected a branch-target register bN, found %S" s)

let parse_core line s =
  let s = trim s in
  if starts_with "c" s then parse_int line (String.sub s 1 (String.length s - 1))
  else fail line (Printf.sprintf "expected a core cN, found %S" s)

let parse_operand line s : Inst.operand =
  let s = trim s in
  if starts_with "#" s then
    Inst.Imm (parse_int line (String.sub s 1 (String.length s - 1)))
  else Inst.Reg (parse_reg line s)

let parse_dir line s : Inst.dir =
  match trim s with
  | "n" -> Inst.North
  | "s" -> Inst.South
  | "e" -> Inst.East
  | "w" -> Inst.West
  | d -> fail line (Printf.sprintf "expected a direction n/s/e/w, found %S" d)

let split2 line sep s what =
  match split_on_string sep s with
  | [ a; b ] -> (trim a, trim b)
  | _ -> fail line (Printf.sprintf "expected '%s' in %s" sep what)

let comma2 line s what =
  match String.split_on_char ',' s with
  | [ a; b ] -> (trim a, trim b)
  | _ -> fail line (Printf.sprintf "expected two comma-separated operands in %s" what)

(* --- Mnemonics ------------------------------------------------------------------- *)

let alu_ops =
  [
    ("add", Inst.Add); ("sub", Inst.Sub); ("mul", Inst.Mul); ("div", Inst.Div);
    ("rem", Inst.Rem); ("and", Inst.And); ("or", Inst.Or); ("xor", Inst.Xor);
    ("shl", Inst.Shl); ("shr", Inst.Shr); ("min", Inst.Min); ("max", Inst.Max);
  ]

let fpu_ops =
  [ ("fadd", Inst.Fadd); ("fsub", Inst.Fsub); ("fmul", Inst.Fmul); ("fdiv", Inst.Fdiv) ]

let cmp_ops =
  [
    ("eq", Inst.Eq); ("ne", Inst.Ne); ("lt", Inst.Lt); ("le", Inst.Le);
    ("gt", Inst.Gt); ("ge", Inst.Ge);
  ]

(* Parse one op, e.g. "cmp.lt r3 = r1, #10". *)
let parse_op line text : Inst.t =
  let text = trim text in
  let mnemonic, rest =
    match String.index_opt text ' ' with
    | Some i ->
      (String.sub text 0 i, trim (String.sub text (i + 1) (String.length text - i - 1)))
    | None -> (text, "")
  in
  let three_addr rest what =
    let dst, srcs = split2 line "=" rest what in
    let s1, s2 = comma2 line srcs what in
    (parse_reg line dst, parse_operand line s1, parse_operand line s2)
  in
  match mnemonic with
  | "nop" -> Inst.Nop
  | "halt" -> Inst.Halt
  | "sleep" -> Inst.Sleep
  | "tm_begin" -> Inst.Tm_begin
  | "tm_commit" -> Inst.Tm_commit
  | "mode_switch" -> (
    match trim rest with
    | "coupled" -> Inst.Mode_switch Inst.Coupled
    | "decoupled" -> Inst.Mode_switch Inst.Decoupled
    | m -> fail line (Printf.sprintf "unknown mode %S" m))
  | "mov" ->
    let dst, src = split2 line "=" rest "mov" in
    Inst.Mov { dst = parse_reg line dst; src = parse_operand line src }
  | "select" ->
    (* select r1 = r2 ? r3 : #4 *)
    let dst, rhs = split2 line "=" rest "select" in
    let pred, arms = split2 line "?" rhs "select" in
    let if_true, if_false = split2 line ":" arms "select" in
    Inst.Select
      {
        dst = parse_reg line dst;
        pred = parse_operand line pred;
        if_true = parse_operand line if_true;
        if_false = parse_operand line if_false;
      }
  | "load" ->
    (* load r1 = [#0 + r5] *)
    let dst, addr = split2 line "=" rest "load" in
    let addr = trim addr in
    if not (starts_with "[" addr && String.length addr > 1 && addr.[String.length addr - 1] = ']')
    then fail line "expected [base + offset] in load";
    let inner = String.sub addr 1 (String.length addr - 2) in
    let base, offset = split2 line "+" inner "load address" in
    Inst.Load
      { dst = parse_reg line dst; base = parse_operand line base; offset = parse_operand line offset }
  | "store" ->
    (* store [#0 + r1] = r2 *)
    let addr, src = split2 line "=" rest "store" in
    let addr = trim addr in
    if not (starts_with "[" addr && String.length addr > 1 && addr.[String.length addr - 1] = ']')
    then fail line "expected [base + offset] in store";
    let inner = String.sub addr 1 (String.length addr - 2) in
    let base, offset = split2 line "+" inner "store address" in
    Inst.Store
      { base = parse_operand line base; offset = parse_operand line offset; src = parse_operand line src }
  | "pbr" ->
    let btr, target = split2 line "=" rest "pbr" in
    Inst.Pbr { btr = parse_btr line btr; target }
  | "br" | "br.not" -> (
    let invert = mnemonic = "br.not" in
    match split_on_string " if " rest with
    | [ btr; pred ] ->
      Inst.Br { btr = parse_btr line btr; pred = Some (parse_operand line pred); invert }
    | [ btr ] when not invert -> Inst.Br { btr = parse_btr line btr; pred = None; invert = false }
    | _ -> fail line "malformed branch")
  | "bcast" -> Inst.Bcast { src = parse_operand line rest }
  | "getb" -> Inst.Getb { dst = parse_reg line rest }
  | "send" ->
    let target, src = comma2 line rest "send" in
    Inst.Send { target = parse_core line target; src = parse_operand line src }
  | "recv" | "recv.p" | "recv.sync" ->
    let kind =
      match mnemonic with
      | "recv" -> Inst.Rv_data
      | "recv.p" -> Inst.Rv_pred
      | _ -> Inst.Rv_sync
    in
    let dst, sender = split2 line "=" rest "recv" in
    Inst.Recv { sender = parse_core line sender; dst = parse_reg line dst; kind }
  | "spawn" ->
    let target, entry = comma2 line rest "spawn" in
    Inst.Spawn { target = parse_core line target; entry }
  | _ -> (
    (* Dotted mnemonics: cmp.lt, put.e, get.w. *)
    match String.split_on_char '.' mnemonic with
    | [ "cmp"; op ] -> (
      match List.assoc_opt op cmp_ops with
      | Some op ->
        let dst, s1, s2 = three_addr rest "cmp" in
        Inst.Cmp { op; dst; src1 = s1; src2 = s2 }
      | None -> fail line (Printf.sprintf "unknown compare 'cmp.%s'" op))
    | [ "put"; d ] -> Inst.Put { dir = parse_dir line d; src = parse_operand line rest }
    | [ "get"; d ] -> Inst.Get { dir = parse_dir line d; dst = parse_reg line rest }
    | _ -> (
      match List.assoc_opt mnemonic alu_ops with
      | Some op ->
        let dst, s1, s2 = three_addr rest "alu op" in
        Inst.Alu { op; dst; src1 = s1; src2 = s2 }
      | None -> (
        match List.assoc_opt mnemonic fpu_ops with
        | Some op ->
          let dst, s1, s2 = three_addr rest "fpu op" in
          Inst.Fpu { op; dst; src1 = s1; src2 = s2 }
        | None -> fail line (Printf.sprintf "unknown mnemonic %S" mnemonic))))

(* --- Lines ------------------------------------------------------------------------ *)

let strip_comment s =
  match String.index_opt s ';' with
  | Some i -> String.sub s 0 i
  | None -> s

(* "  12: add r1 = r2, #3 || nop"  — the address prefix is optional. *)
let strip_addr s =
  match String.index_opt s ':' with
  | Some i when i < String.length s - 1 || i > 0 -> (
    let head = trim (String.sub s 0 i) in
    match int_of_string_opt head with
    | Some _ -> trim (String.sub s (i + 1) (String.length s - i - 1))
    | None -> s)
  | _ -> s

let parse_bundle line text : Bundle.t =
  List.map (fun part -> parse_op line (trim part)) (split_on_string "||" text)

let parse src =
  let lines = String.split_on_char '\n' src in
  let mem_size = ref 1024 in
  let mem_init = ref [] in
  let cores : (int * Image.builder) list ref = ref [] in
  let current : Image.builder option ref = ref None in
  List.iteri
    (fun idx raw ->
      let lineno = idx + 1 in
      let text = trim (strip_comment raw) in
      if text = "" || starts_with "#" text then ()
      else if starts_with ".memory" text then
        mem_size := parse_int lineno (strip_prefix lineno ".memory" text)
      else if starts_with ".init" text then begin
        match
          String.split_on_char ' '
            (String.concat " "
               (List.filter (fun s -> s <> "")
                  (String.split_on_char ' ' (strip_prefix lineno ".init" text))))
        with
        | [ a; v ] ->
          let addr = parse_int lineno a in
          if addr < 0 then fail lineno ".init address must be non-negative";
          mem_init := (addr, parse_int lineno v) :: !mem_init
        | _ -> fail lineno ".init takes an address and a value"
      end
      else if starts_with "===" text then begin
        (* "=== core 2 (24 bundles) ===" or "=== core 2 ===" *)
        let words =
          List.filter (fun s -> s <> "") (String.split_on_char ' ' text)
        in
        match words with
        | "===" :: "core" :: n :: _ ->
          let id = parse_int lineno n in
          let builder = Image.builder () in
          cores := (id, builder) :: !cores;
          current := Some builder
        | _ -> fail lineno "expected '=== core N ==='"
      end
      else begin
        let builder =
          match !current with
          | Some b -> b
          | None -> fail lineno "instruction before any '=== core N ===' header"
        in
        (* Pure label line: "name:" with no instruction after it. *)
        let after_addr = strip_addr text in
        if
          String.length text > 0
          && text.[String.length text - 1] = ':'
          && after_addr = text
        then Image.place_label builder (String.sub text 0 (String.length text - 1))
        else Image.emit builder (parse_bundle lineno after_addr)
      end)
    lines;
  let cores = List.rev !cores in
  if cores = [] then fail 0 "no cores declared";
  let n = 1 + List.fold_left (fun acc (id, _) -> max acc id) 0 cores in
  let images =
    Array.init n (fun id ->
        match List.assoc_opt id cores with
        | Some b -> Image.finish b
        | None -> Image.finish (Image.builder ()))
  in
  (* The image runs to the highest initialised address; a later line for
     the same address wins. *)
  let image =
    Array.make (List.fold_left (fun n (a, _) -> max n (a + 1)) 0 !mem_init) 0
  in
  List.iter (fun (a, v) -> image.(a) <- v) (List.rev !mem_init);
  Program.make ~images ~mem_size:!mem_size ~mem_init:image

let parse_file path =
  let ic = open_in_bin path in
  let src =
    match really_input_string ic (in_channel_length ic) with
    | s ->
      close_in ic;
      s
    | exception e ->
      close_in ic;
      raise e
  in
  parse src

let roundtrip p =
  let text = Format.asprintf "%a" Program.pp p in
  let reparsed = parse text in
  Program.make ~images:reparsed.Program.images ~mem_size:p.Program.mem_size
    ~mem_init:p.Program.mem_init
