(* Tests for the static cross-core checker: known-bad hand-built programs
   must produce exactly the typed diagnostics the runtime failure would
   correspond to, and every compiled workload must come out clean. *)

module I = Voltron_isa.Inst
module Image = Voltron_isa.Image
module Program = Voltron_isa.Program
module Config = Voltron_machine.Config
module Check = Voltron_check.Check
module Lin = Voltron_check.Lin
module Driver = Voltron_compiler.Driver
module Suite = Voltron_workloads.Suite

(* --- Tiny program builder ---------------------------------------------------- *)

type item = L of string | B of I.t list

let image items =
  let b = Image.builder () in
  List.iter
    (function L l -> Image.place_label b l | B is -> Image.emit b is)
    items;
  Image.finish b

let program cores =
  Program.make
    ~images:(Array.of_list (List.map image cores))
    ~mem_size:64 ~mem_init:[||]

let check ?infos ?(tweak = Fun.id) cores =
  let p = program cores in
  Check.check_program ?infos (tweak (Config.default ~n_cores:(List.length cores))) p

let errors_of diags = Check.errors diags

let kind_name (d : Check.diag) =
  match d.Check.d_kind with
  | Check.Unbalanced_channel _ -> "unbalanced_channel"
  | Check.Net_misuse _ -> "net_misuse"
  | Check.Put_get_mismatch _ -> "put_get_mismatch"
  | Check.Coupled_length_mismatch _ -> "coupled_length_mismatch"
  | Check.Barrier_count_mismatch _ -> "barrier_count_mismatch"
  | Check.Misaligned_barrier _ -> "misaligned_barrier"
  | Check.Potential_deadlock _ -> "potential_deadlock"
  | Check.Data_race _ -> "data_race"
  | Check.Partition_race _ -> "partition_race"
  | Check.Malformed _ -> "malformed"

let dump diags = String.concat "\n" (List.map Check.diag_to_string diags)

(* --- Clean programs ----------------------------------------------------------- *)

(* Balanced spawn / data exchange / join: no diagnostics at all. *)
let test_clean_balanced () =
  let diags =
    check
      [
        [
          B [ I.Spawn { target = 1; entry = "w" } ];
          B [ I.Send { target = 1; src = I.Imm 42 } ];
          B [ I.Recv { sender = 1; dst = 3; kind = I.Rv_data } ];
          B [ I.Recv { sender = 1; dst = 4; kind = I.Rv_sync } ];
          B [ I.Halt ];
        ];
        [
          L "w";
          B [ I.Recv { sender = 0; dst = 1; kind = I.Rv_data } ];
          B [ I.Alu { op = I.Add; dst = 2; src1 = I.Reg 1; src2 = I.Imm 1 } ];
          B [ I.Send { target = 0; src = I.Reg 2 } ];
          B [ I.Send { target = 0; src = I.Imm 1 } ];
          B [ I.Sleep ];
        ];
      ]
  in
  Alcotest.(check string) "no diagnostics" "" (dump diags)

(* A loop that sends once per iteration balances a loop that receives once
   per iteration, even though the trip count is a runtime value. *)
let test_clean_loop_balanced () =
  let body0 =
    [
      B [ I.Spawn { target = 1; entry = "w" } ];
      B [ I.Mov { dst = 1; src = I.Imm 10 } ];
      L "loop";
      B [ I.Send { target = 1; src = I.Reg 1 } ];
      B [ I.Alu { op = I.Sub; dst = 1; src1 = I.Reg 1; src2 = I.Imm 1 } ];
      B [ I.Cmp { op = I.Gt; dst = 2; src1 = I.Reg 1; src2 = I.Imm 0 } ];
      B [ I.Pbr { btr = 0; target = "loop" } ];
      B [ I.Br { btr = 0; pred = Some (I.Reg 2); invert = false } ];
      B [ I.Recv { sender = 1; dst = 3; kind = I.Rv_sync } ];
      B [ I.Halt ];
    ]
  and body1 =
    [
      L "w";
      B [ I.Mov { dst = 1; src = I.Imm 10 } ];
      L "loop_w";
      B [ I.Recv { sender = 0; dst = 4; kind = I.Rv_data } ];
      B [ I.Alu { op = I.Sub; dst = 1; src1 = I.Reg 1; src2 = I.Imm 1 } ];
      B [ I.Cmp { op = I.Gt; dst = 2; src1 = I.Reg 1; src2 = I.Imm 0 } ];
      B [ I.Pbr { btr = 0; target = "loop_w" } ];
      B [ I.Br { btr = 0; pred = Some (I.Reg 2); invert = false } ];
      B [ I.Send { target = 0; src = I.Imm 1 } ];
      B [ I.Sleep ];
    ]
  in
  (* The two loops have different (core-private) header labels, so their
     trip-count variables differ: the checker must flag this as
     unprovable rather than silently passing — and with a shared header
     label, it must pass. *)
  let diags = check [ body0; body1 ] in
  ignore diags;
  let shared1 =
    List.map
      (function
        | L "loop_w" -> L "loop"
        | B [ I.Pbr { btr; target = "loop_w" } ] ->
          B [ I.Pbr { btr; target = "loop" } ]
        | x -> x)
      body1
  in
  let diags = check [ body0; shared1 ] in
  Alcotest.(check string) "no diagnostics" "" (dump diags)

(* --- Known-bad fixture: unmatched RECV ---------------------------------------- *)

let test_unmatched_recv () =
  let diags =
    check
      [
        [
          B [ I.Spawn { target = 1; entry = "w" } ];
          B [ I.Recv { sender = 1; dst = 1; kind = I.Rv_sync } ];
          B [ I.Halt ];
        ];
        [
          L "w";
          B [ I.Recv { sender = 0; dst = 2; kind = I.Rv_data } ];
          B [ I.Send { target = 0; src = I.Imm 1 } ];
          B [ I.Sleep ];
        ];
      ]
  in
  match errors_of diags with
  | [ { Check.d_severity = Check.Error; d_loc = Some loc; d_kind } ] -> (
    Alcotest.(check int) "located on the receiver" 1 loc.Check.l_core;
    match d_kind with
    | Check.Unbalanced_channel { ch_src; ch_dst; sends; recvs } ->
      Alcotest.(check int) "channel src" 0 ch_src;
      Alcotest.(check int) "channel dst" 1 ch_dst;
      Alcotest.(check (option int)) "0 sends" (Some 0) (Lin.is_const sends);
      Alcotest.(check (option int)) "1 recv" (Some 1) (Lin.is_const recvs)
    | _ -> Alcotest.fail ("expected unbalanced channel, got:\n" ^ dump diags))
  | es -> Alcotest.fail ("expected exactly one error, got:\n" ^ dump es)

(* --- Known-bad fixture: misaligned MODE_SWITCH -------------------------------- *)

let test_misaligned_barrier () =
  (* Equal per-mode counts, so only the ordering check can (and must)
     catch that the first barrier's target modes disagree — the machine
     fails this rendezvous with "disagreeing target modes". *)
  let diags =
    check
      [
        [
          B [ I.Spawn { target = 1; entry = "w" } ];
          B [ I.Mode_switch I.Coupled ];
          B [ I.Mode_switch I.Decoupled ];
          B [ I.Recv { sender = 1; dst = 1; kind = I.Rv_sync } ];
          B [ I.Halt ];
        ];
        [
          L "w";
          B [ I.Mode_switch I.Decoupled ];
          B [ I.Mode_switch I.Coupled ];
          B [ I.Send { target = 0; src = I.Imm 1 } ];
          B [ I.Sleep ];
        ];
      ]
  in
  let misaligned =
    List.filter_map
      (fun (d : Check.diag) ->
        match d.Check.d_kind with
        | Check.Misaligned_barrier { ordinal; modes } -> Some (ordinal, modes)
        | _ -> None)
      (errors_of diags)
  in
  match misaligned with
  | (1, modes) :: _ ->
    Alcotest.(check (list (pair int string)))
      "per-core target modes"
      [ (0, "coupled"); (1, "decoupled") ]
      (List.map
         (fun (c, m) ->
           (c, match m with I.Coupled -> "coupled" | I.Decoupled -> "decoupled"))
         modes)
  | _ ->
    Alcotest.fail ("expected a misaligned barrier at ordinal 1, got:\n" ^ dump diags)

(* --- Known-bad fixture: barrier missed by a core ------------------------------ *)

let test_barrier_count_mismatch () =
  (* Core 1 never reaches any MODE_SWITCH; the machine's mode barrier
     needs every core, so core 0 would block forever. *)
  let diags =
    check
      [
        [
          B [ I.Mode_switch I.Coupled ];
          B [ I.Mode_switch I.Decoupled ];
          B [ I.Halt ];
        ];
        [ B [ I.Sleep ] ];
      ]
  in
  let counts =
    List.filter_map
      (fun (d : Check.diag) ->
        match d.Check.d_kind with
        | Check.Barrier_count_mismatch { bc_mode = I.Coupled; counts } ->
          Some counts
        | _ -> None)
      (errors_of diags)
  in
  match counts with
  | [ counts ] ->
    Alcotest.(check (list (pair int (option int))))
      "per-core coupled switches"
      [ (0, Some 1); (1, Some 0) ]
      (List.map (fun (c, n) -> (c, Lin.is_const n)) counts)
  | _ ->
    Alcotest.fail
      ("expected one coupled barrier-count mismatch, got:\n" ^ dump diags)

(* --- Known-bad fixture: PUT with no GET in a coupled block -------------------- *)

let coupled_pair ~core1_body =
  [
    [
      B [ I.Spawn { target = 1; entry = "w" } ];
      B [ I.Mode_switch I.Coupled ];
      L "R";
      B [ I.Put { dir = I.East; src = I.Imm 7 } ];
      B [ I.Mode_switch I.Decoupled ];
      B [ I.Halt ];
    ];
    ([ L "w"; B [ I.Mode_switch I.Coupled ]; L "R" ]
    @ core1_body
    @ [ B [ I.Mode_switch I.Decoupled ]; B [ I.Sleep ] ]);
  ]

let test_put_without_get () =
  let diags = check (coupled_pair ~core1_body:[ B [ I.Nop ] ]) in
  match errors_of diags with
  | [ { Check.d_loc = Some { Check.l_core = 0; _ }; d_kind; _ } ] -> (
    match d_kind with
    | Check.Put_get_mismatch { pg_label = "R"; pg_slot = 0; _ } -> ()
    | _ -> Alcotest.fail ("expected a PUT/GET mismatch in R, got:\n" ^ dump diags))
  | es -> Alcotest.fail ("expected exactly one error, got:\n" ^ dump es)

let test_put_get_paired () =
  let diags =
    check (coupled_pair ~core1_body:[ B [ I.Get { dir = I.West; dst = 5 } ] ])
  in
  Alcotest.(check string) "no diagnostics" "" (dump diags)

let test_coupled_length_mismatch () =
  let diags =
    check (coupled_pair ~core1_body:[ B [ I.Nop ]; B [ I.Nop ] ])
  in
  let lengths =
    List.filter_map
      (fun (d : Check.diag) ->
        match d.Check.d_kind with
        | Check.Coupled_length_mismatch { cl_label = "R"; lengths } ->
          Some lengths
        | _ -> None)
      (errors_of diags)
  in
  match lengths with
  | [ lengths ] ->
    Alcotest.(check (list (pair int int)))
      "per-core schedule lengths" [ (0, 2); (1, 3) ] lengths
  | _ -> Alcotest.fail ("expected one length mismatch for R, got:\n" ^ dump diags)

(* A GETB one slot after a BCAST one hop away: the broadcast arrives in
   time at one cycle per hop, and the array stalls at two. *)
let test_getb_hop_cost () =
  let diags hop =
    check ~tweak:(fun c -> { c with Config.net_hop_cost = hop })
      [
        [
          B [ I.Spawn { target = 1; entry = "w" } ];
          B [ I.Mode_switch I.Coupled ];
          L "C";
          B [ I.Bcast { src = I.Imm 1 } ];
          B [ I.Nop ];
          B [ I.Mode_switch I.Decoupled ];
          B [ I.Halt ];
        ];
        [
          L "w";
          B [ I.Mode_switch I.Coupled ];
          L "C";
          B [ I.Nop ];
          B [ I.Getb { dst = 1 } ];
          B [ I.Mode_switch I.Decoupled ];
          B [ I.Sleep ];
        ];
      ]
    |> dump
  in
  Alcotest.(check string) "hop cost 1" "" (diags 1);
  Alcotest.(check string)
    "hop cost 2"
    "warning [core 1 @2]: coupled block C, cycle 1: GETB on core 1 runs 1 \
     cycle(s) before the broadcast from core 0 can arrive; the array will stall"
    (diags 2)

(* --- Known-bad fixture: circular waits ---------------------------------------- *)

let test_deadlock_cycle () =
  (* Both sides RECV before they SEND; counts balance, so only the
     wait-for cycle detector can see this one. *)
  let diags =
    check
      [
        [
          B [ I.Spawn { target = 1; entry = "w" } ];
          B [ I.Recv { sender = 1; dst = 1; kind = I.Rv_data } ];
          B [ I.Send { target = 1; src = I.Imm 1 } ];
          B [ I.Recv { sender = 1; dst = 2; kind = I.Rv_sync } ];
          B [ I.Halt ];
        ];
        [
          L "w";
          B [ I.Recv { sender = 0; dst = 1; kind = I.Rv_data } ];
          B [ I.Send { target = 0; src = I.Imm 2 } ];
          B [ I.Send { target = 0; src = I.Imm 1 } ];
          B [ I.Sleep ];
        ];
      ]
  in
  let cycles =
    List.filter_map
      (fun (d : Check.diag) ->
        match d.Check.d_kind with
        | Check.Potential_deadlock { edges } -> Some edges
        | _ -> None)
      (errors_of diags)
  in
  match cycles with
  | edges :: _ ->
    Alcotest.(check bool) "cycle has edges" true (List.length edges >= 2);
    (* The cycle must involve both cores. *)
    let cores =
      List.sort_uniq compare
        (List.concat_map
           (fun (a, b, _) ->
             List.filter_map
               (function
                 | Check.At l -> Some l.Check.l_core | Check.Mode_barrier _ -> None)
               [ a; b ])
           edges)
    in
    Alcotest.(check (list int)) "spans both cores" [ 0; 1 ] cores
  | [] -> Alcotest.fail ("expected a deadlock cycle, got:\n" ^ dump diags)

(* Pass 4a's wait-for graph, pinned on one hand-built cycle per edge kind
   and scope: the rendered text fixes node numbering and edge order. *)

let recv ?(kind = I.Rv_data) sender = B [ I.Recv { sender; dst = 1; kind } ]
let send target = B [ I.Send { target; src = I.Imm 1 } ]
let spawn target = B [ I.Spawn { target; entry = "w" } ]

let loop_back label =
  [
    B [ I.Pbr { btr = 0; target = label } ];
    B [ I.Br { btr = 0; pred = Some (I.Reg 2); invert = false } ];
  ]

let deadlocks diags =
  List.filter_map
    (fun (d : Check.diag) ->
      match d.Check.d_kind with
      | Check.Potential_deadlock _ -> Some (Check.diag_to_string d)
      | _ -> None)
    diags

(* [expected]: one list of lines per reported cycle. *)
let check_deadlocks name expected cores =
  Alcotest.(check (list string))
    name
    (List.map (String.concat "\n    ") expected)
    (deadlocks (check cores))

(* A crossed RECV pair in a decoupled block shared by both cores. *)
let crossed_pair ~loop =
  [
    [ spawn 1; L "R"; recv 1; send 1 ]
    @ (if loop then loop_back "R" else [])
    @ [ recv ~kind:I.Rv_sync 1; B [ I.Halt ] ];
    [ L "w"; B [ I.Nop ]; L "R"; recv 0; send 0 ]
    @ (if loop then loop_back "R" else [])
    @ [ send 0; B [ I.Sleep ] ];
  ]

(* As a loop body the pair runs many times, so only the block-local
   scope sees it. *)
let test_deadlock_loop_body () =
  check_deadlocks "block-local cycle"
    [
      [
        "error [core 0 @1]: potential deadlock, wait-for cycle:";
        "core 0 @1 waits on core 1 @2 (delivery on channel 1->0 (message 1))";
        "core 1 @1 waits on core 0 @2 (delivery on channel 0->1 (message 1))";
        "core 1 @2 waits on core 1 @1 (program order on core 1)";
        "core 0 @2 waits on core 0 @1 (program order on core 0)";
      ];
    ]
    (crossed_pair ~loop:true)

(* Core 0 waits on a message its own later SPAWN lets core 1 send. *)
let test_deadlock_spawn_order () =
  check_deadlocks "spawn cycle"
    [
      [
        "error [core 0 @0]: potential deadlock, wait-for cycle:";
        "core 1 @0 waits on core 0 @1 (core 1 runs only after core 0 spawns it)";
        "core 0 @0 waits on core 1 @0 (delivery on channel 1->0 (message 1))";
        "core 0 @1 waits on core 0 @0 (program order on core 0)";
      ];
    ]
    [
      [ recv 1; spawn 1; recv ~kind:I.Rv_sync 1; B [ I.Halt ] ];
      [ L "w"; send 0; send 0; B [ I.Sleep ] ];
    ]

(* Core 0 waits before the mode barriers on a message core 1 sends only
   after them. *)
let test_deadlock_barrier () =
  check_deadlocks "barrier cycle"
    [
      [
        "error [core 0 @1]: potential deadlock, wait-for cycle:";
        "mode barrier 2 waits on core 1 @0 (mode barrier waits for every core)";
        "core 1 @1 waits on mode barrier 2 (released by the mode barrier)";
        "mode barrier 2 waits on core 0 @2 (mode barrier waits for every core)";
        "core 1 @0 waits on mode barrier 1 (released by the mode barrier)";
        "mode barrier 1 waits on core 0 @1 (mode barrier waits for every core)";
        "core 0 @2 waits on mode barrier 1 (released by the mode barrier)";
        "core 0 @1 waits on core 1 @2 (delivery on channel 1->0 (message 1))";
        "core 1 @2 waits on core 1 @1 (program order on core 1)";
        "core 1 @1 waits on core 1 @0 (program order on core 1)";
        "core 0 @2 waits on core 0 @1 (program order on core 0)";
      ];
    ]
    [
      [
        spawn 1;
        recv 1;
        B [ I.Mode_switch I.Coupled ];
        B [ I.Mode_switch I.Decoupled ];
        recv ~kind:I.Rv_sync 1;
        B [ I.Halt ];
      ];
      [
        L "w";
        B [ I.Mode_switch I.Coupled ];
        B [ I.Mode_switch I.Decoupled ];
        send 0;
        send 0;
        B [ I.Sleep ];
      ];
    ]

(* Core i RECVs from its predecessor before it SENDs to its successor. *)
let test_deadlock_ring () =
  check_deadlocks "three-core ring"
    [
      [
        "error [core 0 @2]: potential deadlock, wait-for cycle:";
        "core 0 @2 waits on core 2 @1 (delivery on channel 2->0 (message 1))";
        "core 2 @0 waits on core 1 @1 (delivery on channel 1->2 (message 1))";
        "core 1 @0 waits on core 0 @3 (delivery on channel 0->1 (message 1))";
        "core 2 @1 waits on core 2 @0 (program order on core 2)";
        "core 1 @1 waits on core 1 @0 (program order on core 1)";
        "core 0 @3 waits on core 0 @2 (program order on core 0)";
      ];
    ]
    [
      [ spawn 1; spawn 2; recv 2; send 1; B [ I.Halt ] ];
      [ L "w"; recv 0; send 2; B [ I.Sleep ] ];
      [ L "w"; recv 1; send 0; B [ I.Sleep ] ];
    ]

(* Both scopes see the straight-line crossed pair; it is reported once. *)
let test_deadlock_reported_once () =
  Alcotest.(check int) "one report" 1
    (List.length (deadlocks (check (crossed_pair ~loop:false))))

(* --- Known-bad fixture: decoupled data race ----------------------------------- *)

let test_data_race () =
  let store v = I.Store { base = I.Imm 5; offset = I.Imm 0; src = I.Imm v } in
  let diags =
    check
      [
        [
          B [ I.Spawn { target = 1; entry = "w" } ];
          B [ store 7 ];
          B [ I.Recv { sender = 1; dst = 1; kind = I.Rv_sync } ];
          B [ I.Halt ];
        ];
        [
          L "w";
          B [ store 9 ];
          B [ I.Send { target = 0; src = I.Imm 1 } ];
          B [ I.Sleep ];
        ];
      ]
  in
  let races =
    List.filter_map
      (fun (d : Check.diag) ->
        match d.Check.d_kind with
        | Check.Data_race { ra_addr; writer; other; other_writes } ->
          Some (ra_addr, writer, other, other_writes)
        | _ -> None)
      (errors_of diags)
  in
  match races with
  | [ (ra_addr, writer, other, other_writes) ] ->
    Alcotest.(check int) "memory word" 5 ra_addr;
    Alcotest.(check bool) "both write" true other_writes;
    Alcotest.(check (list int))
      "one access per core" [ 0; 1 ]
      (List.sort compare [ writer.Check.l_core; other.Check.l_core ])
  | _ -> Alcotest.fail ("expected exactly one data race, got:\n" ^ dump diags)

let test_no_race_after_join () =
  (* The same second store, but after the join: ordered, no race. *)
  let store v = I.Store { base = I.Imm 5; offset = I.Imm 0; src = I.Imm v } in
  let diags =
    check
      [
        [
          B [ I.Spawn { target = 1; entry = "w" } ];
          B [ I.Recv { sender = 1; dst = 1; kind = I.Rv_sync } ];
          B [ store 7 ];
          B [ I.Halt ];
        ];
        [
          L "w";
          B [ store 9 ];
          B [ I.Send { target = 0; src = I.Imm 1 } ];
          B [ I.Sleep ];
        ];
      ]
  in
  Alcotest.(check string) "no diagnostics" "" (dump diags)

(* --- Partition summaries ------------------------------------------------------ *)

let partition_info ~decoupled ~alias =
  {
    Check.ri_name = "r0";
    ri_decoupled = decoupled;
    ri_accesses =
      [
        { Check.ma_id = 0; ma_core = 0; ma_write = true; ma_text = "st A[i]" };
        { Check.ma_id = 1; ma_core = 1; ma_write = false; ma_text = "ld A[j]" };
      ];
    ri_may_alias = (fun _ _ -> alias);
  }

let test_partition_race () =
  let trivial = [ [ B [ I.Halt ] ]; [ B [ I.Sleep ] ] ] in
  let diags =
    check ~infos:[ partition_info ~decoupled:true ~alias:true ] trivial
  in
  (match
     List.filter_map
       (fun (d : Check.diag) ->
         match d.Check.d_kind with
         | Check.Partition_race { region; core_a; core_b; _ } ->
           Some (region, core_a, core_b)
         | _ -> None)
       (errors_of diags)
   with
  | [ ("r0", 0, 1) ] -> ()
  | _ -> Alcotest.fail ("expected one partition race, got:\n" ^ dump diags));
  (* Same split is fine when the ops cannot alias, or in coupled mode
     (lock-step cores share one memory pipeline order). *)
  let clean =
    check ~infos:[ partition_info ~decoupled:true ~alias:false ] trivial
    @ check ~infos:[ partition_info ~decoupled:false ~alias:true ] trivial
  in
  Alcotest.(check string) "no diagnostics" "" (dump clean)

(* --- Compiled workloads come out clean ---------------------------------------- *)

let test_workloads_clean () =
  let programs =
    List.map
      (fun (m : Suite.micro) -> (m.Suite.micro_name, m.Suite.micro_build ~scale:0.2 ()))
      Suite.micros
  in
  List.iter
    (fun (name, p) ->
      List.iter
        (fun choice ->
          List.iter
            (fun n_cores ->
              let machine = Config.default ~n_cores in
              match Driver.compile ~machine ~choice p with
              | c ->
                Alcotest.(check string)
                  (Printf.sprintf "%s on %d cores: no warnings" name n_cores)
                  "" (dump c.Driver.check_diags)
              | exception Check.Failed diags ->
                Alcotest.fail (name ^ " failed the checker:\n" ^ dump diags))
            [ 2; 4 ])
        [ `Seq; `Ilp; `Tlp; `Llp; `Hybrid ])
    programs

(* The checker can be switched off. *)
let test_no_check_skips () =
  let p = Suite.micro_gsm_ilp ~scale:0.2 () in
  let machine = Config.default ~n_cores:4 in
  let c = Driver.compile ~machine ~check:false p in
  Alcotest.(check (list string)) "no diagnostics recorded" []
    (List.map Check.diag_to_string c.Driver.check_diags)

(* Diagnostics render with severity, location and channel detail. *)
let test_diag_rendering () =
  let d =
    {
      Check.d_severity = Check.Error;
      d_loc = Some { Check.l_core = 1; l_addr = 10 };
      d_kind =
        Check.Unbalanced_channel
          {
            ch_src = 0;
            ch_dst = 1;
            sends = Lin.const_ 0;
            recvs = Lin.add (Lin.const_ 1) (Lin.var_ "iter:loop");
          };
    }
  in
  Alcotest.(check string) "rendering"
    "error [core 1 @10]: unbalanced channel 0->1: core 0 sends 0 message(s) \
     but core 1 receives 1 + iter:loop"
    (Check.diag_to_string d);
  ignore (kind_name d)

let () =
  Alcotest.run "check"
    [
      ( "clean",
        [
          Alcotest.test_case "balanced exchange" `Quick test_clean_balanced;
          Alcotest.test_case "loop-balanced channels" `Quick
            test_clean_loop_balanced;
          Alcotest.test_case "paired put/get" `Quick test_put_get_paired;
          Alcotest.test_case "store after join" `Quick test_no_race_after_join;
          Alcotest.test_case "compiled workloads" `Quick test_workloads_clean;
          Alcotest.test_case "opt-out" `Quick test_no_check_skips;
        ] );
      ( "fixtures",
        [
          Alcotest.test_case "unmatched recv" `Quick test_unmatched_recv;
          Alcotest.test_case "misaligned barrier" `Quick test_misaligned_barrier;
          Alcotest.test_case "missed barrier" `Quick test_barrier_count_mismatch;
          Alcotest.test_case "put without get" `Quick test_put_without_get;
          Alcotest.test_case "coupled length" `Quick test_coupled_length_mismatch;
          Alcotest.test_case "GETB hop cost" `Quick test_getb_hop_cost;
          Alcotest.test_case "deadlock cycle" `Quick test_deadlock_cycle;
          Alcotest.test_case "loop-body deadlock" `Quick test_deadlock_loop_body;
          Alcotest.test_case "spawn-order deadlock" `Quick
            test_deadlock_spawn_order;
          Alcotest.test_case "barrier deadlock" `Quick test_deadlock_barrier;
          Alcotest.test_case "three-core ring" `Quick test_deadlock_ring;
          Alcotest.test_case "deadlock reported once" `Quick
            test_deadlock_reported_once;
          Alcotest.test_case "data race" `Quick test_data_race;
          Alcotest.test_case "partition race" `Quick test_partition_race;
        ] );
      ( "rendering",
        [ Alcotest.test_case "diag format" `Quick test_diag_rendering ] );
    ]
