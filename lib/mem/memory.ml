module Ecc = Voltron_fault.Ecc

type t = { data : int array; mutable ecc : Ecc.t option }

let create n =
  if n <= 0 then invalid_arg "Memory.create: size must be positive";
  { data = Array.make n 0; ecc = None }

let size t = Array.length t.data

let attach_ecc t e = t.ecc <- Some e

let check t addr what =
  if addr < 0 || addr >= Array.length t.data then
    invalid_arg
      (Printf.sprintf "Memory.%s: address %d outside [0,%d)" what addr
         (Array.length t.data))

(* The fault-free path (no ECC shadow attached) is one bounds test and the
   array access; everything ECC hides behind the single [t.ecc] branch. *)
let read t addr =
  check t addr "read";
  match t.ecc with
  | None -> t.data.(addr)
  | Some e ->
    (match Ecc.check e ~addr with
    | Some golden -> t.data.(addr) <- golden
    | None -> ());
    t.data.(addr)

let write t addr v =
  check t addr "write";
  match t.ecc with
  | None -> t.data.(addr) <- v
  | Some e ->
    Ecc.overwrite e ~addr;
    t.data.(addr) <- v

let corrupt t addr ~flip =
  check t addr "corrupt";
  match t.ecc with
  | None -> ()  (* no ECC, no fault model: refuse to corrupt silently *)
  | Some e ->
    Ecc.note_flip e ~addr ~golden:t.data.(addr);
    t.data.(addr) <- flip t.data.(addr)

(* Architectural value of [addr] with no side effect: what a read would
   return, but without consuming the ECC entry, counting a correction, or
   charging a penalty. The runtime sanitizer's window into memory. *)
let peek t addr =
  check t addr "peek";
  match t.ecc with
  | None -> t.data.(addr)
  | Some e -> (
    match Ecc.peek e ~addr with
    | Some golden -> golden
    | None -> t.data.(addr))

(* Corrupt a word *without* telling the ECC model — a fault past the
   detection capability of the code (e.g. a multi-bit upset). Nothing in
   the recovery machinery can see it; only the sanitizer's shadow memory
   can. Test-only: the fault injector proper goes through [corrupt]. *)
let test_tamper t addr v =
  check t addr "test_tamper";
  t.data.(addr) <- v

let scrub t =
  match t.ecc with
  | None -> ()
  | Some e -> Ecc.scrub e ~f:(fun addr golden -> t.data.(addr) <- golden)

let load_init t image =
  if Array.length image > Array.length t.data then
    invalid_arg "Memory.load_init: image larger than memory";
  Array.blit image 0 t.data 0 (Array.length image)

let snapshot t = Array.copy t.data

let restore t snap =
  if Array.length snap <> Array.length t.data then
    invalid_arg "Memory.restore: snapshot size mismatch";
  Array.blit snap 0 t.data 0 (Array.length snap)

let equal a b = a.data = b.data

let checksum_prefix t n =
  if n < 0 || n > Array.length t.data then
    invalid_arg "Memory.checksum_prefix: bad length";
  let h = ref 0x2bf29ce484222325 in
  for i = 0 to n - 1 do
    h := !h lxor t.data.(i);
    h := !h * 0x100000001b3
  done;
  !h land max_int

let checksum t = checksum_prefix t (Array.length t.data)
