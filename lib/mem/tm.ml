type tx = {
  mutable active : bool;
  reads : (int, unit) Hashtbl.t;
  writes : (int, int) Hashtbl.t;  (** address -> last buffered value *)
  write_order : int Voltron_util.Vec.t;  (** addresses in first-write order *)
}

type action = Begin | Commit | Abort | Read | Read_tx | Write | Write_tx

type t = {
  mem : Memory.t;
  txs : tx array;
  mutable monitor : (core:int -> action -> addr:int -> value:int -> unit) option;
  (* Test-only sabotage: when armed, the next abort leaks its first
     buffered store into memory before discarding the buffer — a broken
     rollback for the sanitizer's TM oracle to catch. *)
  mutable leak_next_abort : bool;
}

let fresh_tx () =
  {
    active = false;
    reads = Hashtbl.create 32;
    writes = Hashtbl.create 32;
    write_order = Voltron_util.Vec.create ();
  }

let create mem ~n_cores =
  {
    mem;
    txs = Array.init n_cores (fun _ -> fresh_tx ());
    monitor = None;
    leak_next_abort = false;
  }

let set_monitor t f = t.monitor <- Some f

let test_leak_next_abort t = t.leak_next_abort <- true

let in_tx t ~core = t.txs.(core).active

let tx_begin t ~core =
  let tx = t.txs.(core) in
  if tx.active then invalid_arg "Tm.tx_begin: transaction already active";
  tx.active <- true;
  Hashtbl.reset tx.reads;
  Hashtbl.reset tx.writes;
  Voltron_util.Vec.clear tx.write_order;
  match t.monitor with None -> () | Some f -> f ~core Begin ~addr:0 ~value:0

let read t ~core addr =
  let tx = t.txs.(core) in
  let in_tx = tx.active in
  let v =
    if not in_tx then Memory.read t.mem addr
    else begin
      Hashtbl.replace tx.reads addr ();
      match Hashtbl.find_opt tx.writes addr with
      | Some v -> v
      | None -> Memory.read t.mem addr
    end
  in
  (match t.monitor with
  | None -> ()
  | Some f -> f ~core (if in_tx then Read_tx else Read) ~addr ~value:v);
  v

let write t ~core addr v =
  let tx = t.txs.(core) in
  let in_tx = tx.active in
  if not in_tx then Memory.write t.mem addr v
  else begin
    (* Validate the address eagerly so an out-of-bounds store faults inside
       the transaction, like a real store would. *)
    if addr < 0 || addr >= Memory.size t.mem then
      invalid_arg (Printf.sprintf "Tm.write: address %d out of bounds" addr);
    if not (Hashtbl.mem tx.writes addr) then
      Voltron_util.Vec.push tx.write_order addr;
    Hashtbl.replace tx.writes addr v
  end;
  match t.monitor with
  | None -> ()
  | Some f -> f ~core (if in_tx then Write_tx else Write) ~addr ~value:v

let clear_tx t ~core =
  let tx = t.txs.(core) in
  tx.active <- false;
  Hashtbl.reset tx.reads;
  Hashtbl.reset tx.writes;
  Voltron_util.Vec.clear tx.write_order

let abort t ~core =
  let tx = t.txs.(core) in
  if t.leak_next_abort && tx.active && Voltron_util.Vec.length tx.write_order > 0
  then begin
    (* Armed sabotage: a rollback that forgets to discard one buffered
       store. The write bypasses the monitor on purpose — a real protocol
       bug would not announce itself either. *)
    t.leak_next_abort <- false;
    let addr = Voltron_util.Vec.get tx.write_order 0 in
    Memory.write t.mem addr (Hashtbl.find tx.writes addr)
  end;
  clear_tx t ~core;
  match t.monitor with None -> () | Some f -> f ~core Abort ~addr:0 ~value:0

let commit_one t ~core =
  let tx = t.txs.(core) in
  Voltron_util.Vec.iter
    (fun addr -> Memory.write t.mem addr (Hashtbl.find tx.writes addr))
    tx.write_order;
  clear_tx t ~core;
  match t.monitor with None -> () | Some f -> f ~core Commit ~addr:0 ~value:0

let commit_round t ~cores =
  let committed_writes : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let rec loop = function
    | [] -> `All_committed
    | core :: rest ->
      let tx = t.txs.(core) in
      if not tx.active then
        invalid_arg (Printf.sprintf "Tm.commit_round: core %d not in a transaction" core);
      let conflict =
        Hashtbl.fold
          (fun addr () acc -> acc || Hashtbl.mem committed_writes addr)
          tx.reads false
      in
      if conflict then begin
        List.iter (fun c -> abort t ~core:c) (core :: rest);
        `Conflict_at core
      end
      else begin
        Hashtbl.iter (fun addr _ -> Hashtbl.replace committed_writes addr ()) tx.writes;
        commit_one t ~core;
        loop rest
      end
  in
  loop cores
