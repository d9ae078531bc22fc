(* Tests for the analysis layer: affine index forms and dependence tests,
   profiling (trip counts, cross-iteration RAW observation, miss rates),
   DOALL classification incl. accumulator recognition, memory-dependence
   queries, and dependence-graph construction. *)

module B = Voltron_ir.Builder
module Hir = Voltron_ir.Hir
module Affine = Voltron_analysis.Affine
module Profile = Voltron_analysis.Profile
module Doall = Voltron_analysis.Doall
module Memdep = Voltron_analysis.Memdep
module Depgraph = Voltron_analysis.Depgraph
module Inst = Voltron_isa.Inst

let imm = B.imm

(* --- Affine ------------------------------------------------------------------- *)

let test_linexpr_algebra () =
  let open Affine in
  let e = add (scale 3 (var_ 1)) (const_ 5) in
  Alcotest.(check int) "coeff" 3 (coeff e 1);
  Alcotest.(check (option int)) "not const" None (is_const e);
  let d = sub e (scale 3 (var_ 1)) in
  Alcotest.(check (option int)) "const diff" (Some 5) (is_const d);
  Alcotest.(check bool) "equal" true (equal e (add (const_ 5) (scale 3 (var_ 1))))

(* Build a loop body and extract index forms. *)
let loop_body_of build =
  let b = B.create "t" in
  let a = B.array b ~name:"a" ~size:64 () in
  B.region b "main" (fun () ->
      B.for_ b ~from:(imm 0) ~limit:(imm 16) (fun i -> build b a i));
  let p = B.finish b in
  match p.Hir.regions with
  | [ { Hir.stmts = [ { Hir.node = Hir.For loop; _ } ]; _ } ] -> (loop, p)
  | _ -> Alcotest.fail "unexpected program shape"

let test_index_forms_linear () =
  let loop, _ =
    loop_body_of (fun b a i ->
        let j = B.add b (B.mul b i (imm 2)) (imm 3) in
        B.store b a j (imm 1))
  in
  let forms = Affine.index_forms ~loop_vars:[ loop.Hir.var ] loop.Hir.body in
  let linear = Hashtbl.fold (fun _ f acc -> (f <> None) :: acc) forms [] in
  Alcotest.(check (list bool)) "store index is linear" [ true ] linear;
  Hashtbl.iter
    (fun _ f ->
      match f with
      | Some e ->
        Alcotest.(check int) "coeff 2" 2 (Affine.coeff e loop.Hir.var)
      | None -> Alcotest.fail "linear form expected")
    forms

let test_index_forms_kills_loop_body_defs () =
  (* x = x + 1 inside the body is not affine in the loop variable. *)
  let b = B.create "t" in
  let a = B.array b ~name:"a" ~size:64 () in
  B.region b "main" (fun () ->
      let x = B.fresh b in
      B.assign b x (Hir.Operand (imm 0));
      B.for_ b ~from:(imm 0) ~limit:(imm 8) (fun _i ->
          B.assign b x (Hir.Alu (Inst.Add, Hir.Reg x, imm 3));
          B.store b a (Hir.Reg x) (imm 1)));
  let p = B.finish b in
  let loop =
    match p.Hir.regions with
    | [ { Hir.stmts = [ _; { Hir.node = Hir.For l; _ } ]; _ } ] -> l
    | _ -> Alcotest.fail "shape"
  in
  let forms = Affine.index_forms ~loop_vars:[ loop.Hir.var ] loop.Hir.body in
  Hashtbl.iter
    (fun _ f -> Alcotest.(check bool) "pointer-walk index unknown" true (f = None))
    forms

let test_cross_iteration_alias () =
  let open Affine in
  let v = 9 in
  let f k c = Some (add (scale k (var_ v)) (const_ c)) in
  let check expect a b =
    Alcotest.(check bool) "verdict" true (cross_iteration_alias ~var:v a b = expect)
  in
  check Same_iteration_only (f 1 0) (f 1 0);
  check May_cross (f 1 0) (f 1 1) (* a[i] vs a[i+1] *);
  check Never (f 2 0) (f 2 1) (* a[2i] vs a[2i+1] *);
  check May_cross (f 1 0) (f 1 5);
  check Never (Some (const_ 3)) (Some (const_ 7));
  check May_cross (Some (const_ 3)) (Some (const_ 3));
  check Unknown None (f 1 0);
  check Unknown (f 1 0) (f 2 0)

(* Loop-carried dependences at distance greater than one: a[i] against
   a[i+k] collides k iterations apart for any stride-compatible k, while
   offsets that the stride can never make up stay disjoint. *)
let test_cross_iteration_distance () =
  let open Affine in
  let v = 9 in
  let f k c = Some (add (scale k (var_ v)) (const_ c)) in
  let check expect a b =
    Alcotest.(check bool) "verdict" true (cross_iteration_alias ~var:v a b = expect)
  in
  check May_cross (f 1 0) (f 1 2) (* a[i] vs a[i+2]: distance 2 *);
  check May_cross (f 1 0) (f 1 7) (* distance 7 *);
  check May_cross (f 2 0) (f 2 6) (* a[2i] vs a[2i+6]: distance 3 *);
  check Never (f 3 0) (f 3 7) (* stride 3 never makes up an offset of 7 *);
  check May_cross (f 1 2) (f 1 0) (* symmetric *)

(* Another loop variable left in both forms varies too, so it cannot be
   cancelled as if it were fixed: the forms of the corpus programs
   regress_alias_strands, regress_alias_doall and fuzz_s1_i50. *)
let test_cross_iteration_other_var () =
  let open Affine in
  let i = 9 and j = 10 in
  let f ci cj c =
    Some (add (add (scale ci (var_ i)) (scale cj (var_ j))) (const_ c))
  in
  let check var expect a b =
    Alcotest.(check bool) "verdict" true (cross_iteration_alias ~var a b = expect)
  in
  check j Unknown (f 1 2 0) (f 1 2 1) (* a[2j+i] vs a[2j+i+1] over j *);
  check i Unknown (f 2 1 0) (f 2 1 0) (* a[2i+j] against itself over i *);
  check j Unknown (f 1 0 4) (f 1 0 0) (* a[i+4] vs a[i] over an unrelated j *);
  check i Never (f 2 0 0) (f 2 0 1) (* no other variable: still decided *)

(* --- Profile ------------------------------------------------------------------- *)

let test_profile_trips_and_raw () =
  let b = B.create "t" in
  let a = B.array b ~name:"a" ~size:64 ~init:(fun i -> i) () in
  let dep = B.array b ~name:"dep" ~size:64 ~init:(fun i -> i) () in
  B.region b "main" (fun () ->
      (* Independent loop. *)
      B.for_ b ~from:(imm 0) ~limit:(imm 10) (fun i ->
          B.store b a i (B.add b i (imm 1)));
      (* Loop with a genuine cross-iteration RAW: dep[i] <- dep[i-1]. *)
      B.for_ b ~from:(imm 1) ~limit:(imm 10) (fun i ->
          let prev = B.load b dep (B.sub b i (imm 1)) in
          B.store b dep i prev));
  let p = B.finish b in
  let profile = Profile.collect p in
  let loops = ref [] in
  List.iter
    (fun (r : Hir.region) ->
      Hir.iter_stmts
        (fun s ->
          match s.Hir.node with
          | Hir.For _ -> loops := s.Hir.sid :: !loops
          | _ -> ())
        r.Hir.stmts)
    p.Hir.regions;
  match List.rev !loops with
  | [ clean; dirty ] ->
    Alcotest.(check (float 0.01)) "clean trips" 10. (Profile.avg_trip profile clean);
    Alcotest.(check (float 0.01)) "dirty trips" 9. (Profile.avg_trip profile dirty);
    Alcotest.(check bool) "clean has no RAW" false (Profile.has_cross_raw profile clean);
    Alcotest.(check bool) "dirty has RAW" true (Profile.has_cross_raw profile dirty)
  | _ -> Alcotest.fail "two loops expected"

let test_profile_miss_rates () =
  let b = B.create "t" in
  (* 8192-word array walked with a line-sized stride: every access a miss.
     A 16-word array: virtually all hits. *)
  let big = B.array b ~name:"big" ~size:8192 ~init:(fun i -> i) () in
  let small = B.array b ~name:"small" ~size:16 ~init:(fun i -> i) () in
  B.region b "main" (fun () ->
      B.for_ b ~from:(imm 0) ~limit:(imm 512) (fun i ->
          let j = B.binop b Inst.And (B.mul b i (imm 8)) (imm 8191) in
          let v1 = B.load b big j in
          let v2 = B.load b small (B.binop b Inst.And i (imm 15)) in
          B.store b small (imm 0) (B.add b v1 v2)));
  let p = B.finish b in
  let profile = Profile.collect p in
  let rates = ref [] in
  List.iter
    (fun (r : Hir.region) ->
      Hir.iter_stmts
        (fun s ->
          match s.Hir.node with
          | Hir.Assign (_, Hir.Load _) -> rates := Profile.miss_rate profile s.Hir.sid :: !rates
          | _ -> ())
        r.Hir.stmts)
    p.Hir.regions;
  match List.rev !rates with
  | [ big_rate; small_rate ] ->
    Alcotest.(check bool) "big array misses a lot" true (big_rate > 0.5);
    Alcotest.(check bool) "small array mostly hits" true (small_rate < 0.2)
  | _ -> Alcotest.fail "two loads expected"

(* A collected profile carries its run's oracle facts, and only for the very
   program value it ran: a rebuilt (structurally equal) twin and a static
   profile carry none, so a compile runs the interpreter for them. *)
let test_profile_oracle_keyed_to_program () =
  let build () =
    let b = B.create "t" in
    let a = B.array b ~name:"a" ~size:32 ~init:(fun i -> i) () in
    B.region b "main" (fun () ->
        B.for_ b ~from:(imm 1) ~limit:(imm 32) (fun i ->
            B.store b a i (B.add b (B.load b a (B.sub b i (imm 1))) i)));
    B.finish b
  in
  let p = build () in
  let profile = Profile.collect p in
  let r = Voltron_ir.Interp.run p in
  let words = Voltron_ir.Layout.mem_size r.Voltron_ir.Interp.layout in
  (match Profile.oracle profile p with
  | Some o ->
    Alcotest.(check int) "footprint" words o.Profile.array_footprint;
    Alcotest.(check int) "checksum"
      (Voltron_mem.Memory.checksum_prefix r.Voltron_ir.Interp.memory words)
      o.Profile.checksum
  | None -> Alcotest.fail "collected profile has no oracle");
  Alcotest.(check bool) "twin has none" true (Profile.oracle profile (build ()) = None);
  Alcotest.(check bool) "static has none" true
    (Profile.oracle (Profile.of_static p) p = None)

(* --- DOALL --------------------------------------------------------------------- *)

let classify build =
  let b = B.create "t" in
  let a = B.array b ~name:"a" ~size:64 ~init:(fun i -> i) () in
  let a2 = B.array b ~name:"a2" ~size:64 ~init:(fun i -> i) () in
  B.region b "main" (fun () ->
      B.for_ b ~from:(imm 0) ~limit:(imm 32) (fun i -> build b a a2 i));
  let p = B.finish b in
  let profile = Profile.collect p in
  match p.Hir.regions with
  | [ { Hir.stmts = [ { Hir.sid; node = Hir.For loop; _ } ]; _ } ] ->
    Doall.classify loop ~profile ~loop_sid:sid
  | _ -> Alcotest.fail "shape"

let test_doall_proven () =
  match classify (fun b a a2 i -> B.store b a i (B.add b (B.load b a2 i) (imm 1))) with
  | Doall.Proven [] -> ()
  | Doall.Proven _ -> Alcotest.fail "no accumulators expected"
  | Doall.Speculative _ -> Alcotest.fail "should be proven"
  | Doall.Rejected r -> Alcotest.fail ("rejected: " ^ r)

let test_doall_accumulator () =
  let b = B.create "t" in
  let a = B.array b ~name:"a" ~size:64 ~init:(fun i -> i) () in
  B.region b "main" (fun () ->
      let acc = B.fresh b in
      B.assign b acc (Hir.Operand (imm 0));
      B.for_ b ~from:(imm 0) ~limit:(imm 32) (fun i ->
          let v = B.load b a i in
          B.assign b acc (Hir.Alu (Inst.Add, Hir.Reg acc, v)));
      B.store b a (imm 0) (Hir.Reg acc));
  let p = B.finish b in
  let profile = Profile.collect p in
  let loop, sid =
    match p.Hir.regions with
    | [ { Hir.stmts = [ _; { Hir.sid; node = Hir.For l; _ }; _ ]; _ } ] -> (l, sid)
    | _ -> Alcotest.fail "shape"
  in
  match Doall.classify loop ~profile ~loop_sid:sid with
  | Doall.Proven [ acc ] ->
    Alcotest.(check bool) "accumulator found" true (acc.Doall.acc_vreg >= 0)
  | Doall.Proven l ->
    Alcotest.fail (Printf.sprintf "%d accumulators" (List.length l))
  | Doall.Speculative _ -> Alcotest.fail "should be proven"
  | Doall.Rejected r -> Alcotest.fail ("rejected: " ^ r)

let test_doall_rejects_scalar_recurrence () =
  let b = B.create "t" in
  let a = B.array b ~name:"a" ~size:64 ~init:(fun i -> i) () in
  B.region b "main" (fun () ->
      let x = B.fresh b in
      B.assign b x (Hir.Operand (imm 1));
      B.for_ b ~from:(imm 0) ~limit:(imm 32) (fun i ->
          (* x is read and then multiplied — not an accumulator. *)
          let y = B.binop b Inst.Xor (Hir.Reg x) i in
          B.assign b x (Hir.Alu (Inst.Mul, y, imm 3));
          B.store b a i (Hir.Reg x)));
  let p = B.finish b in
  let profile = Profile.collect p in
  let loop, sid =
    match p.Hir.regions with
    | [ { Hir.stmts = [ _; { Hir.sid; node = Hir.For l; _ } ]; _ } ] -> (l, sid)
    | _ -> Alcotest.fail "shape"
  in
  match Doall.classify loop ~profile ~loop_sid:sid with
  | Doall.Rejected _ -> ()
  | Doall.Proven _ | Doall.Speculative _ ->
    Alcotest.fail "scalar recurrence must reject DOALL"

let test_doall_rejects_memory_recurrence () =
  match
    classify (fun b a _ i ->
        let prev = B.load b a (B.sub b i (imm 0)) in
        (* a[i] <- f(a[i]) is fine; make it a[i+1] <- f(a[i]): *)
        B.store b a (B.add b i (imm 1)) (B.add b prev (imm 1)))
  with
  | Doall.Rejected _ -> ()
  | Doall.Proven _ -> Alcotest.fail "cross-iteration RAW must not be proven"
  | Doall.Speculative _ -> Alcotest.fail "profile must observe the RAW"

let test_doall_speculative_indirect () =
  (* Indirection defeats the affine test but profiling sees no RAW. *)
  match
    classify (fun b a a2 i ->
        let j = B.load b a2 i in
        B.store b a (B.binop b Inst.And j (imm 63)) (imm 5))
  with
  | Doall.Speculative _ -> ()
  | Doall.Proven _ -> Alcotest.fail "indirect store cannot be proven"
  | Doall.Rejected r -> Alcotest.fail ("rejected: " ^ r)

(* --- Memdep / Depgraph ----------------------------------------------------------- *)

let lower_one stmts_build =
  let b = B.create "t" in
  let a = B.array b ~name:"a" ~size:64 () in
  let a2 = B.array b ~name:"a2" ~size:64 () in
  B.region b "main" (fun () -> stmts_build b a a2);
  let p = B.finish b in
  let lay = Voltron_ir.Layout.compute p in
  let ctx = Voltron_ir.Lower.make_ctx ~layout:lay ~first_vreg:p.Hir.n_vregs in
  match p.Hir.regions with
  | [ r ] ->
    let cfg = Voltron_ir.Lower.region ctx r.Hir.stmts in
    (cfg, Memdep.create ~region_stmts:r.Hir.stmts cfg)
  | _ -> Alcotest.fail "one region"

let test_memdep_arrays_disjoint () =
  let cfg, md = lower_one (fun b a a2 ->
      let v = B.load b a (imm 0) in
      B.store b a2 (imm 0) v)
  in
  let mem_ops = List.filter (Memdep.is_mem md) (Voltron_ir.Cfg.all_ops cfg) in
  match mem_ops with
  | [ x; y ] ->
    Alcotest.(check bool) "different arrays never alias" false (Memdep.ever_alias md x y)
  | _ -> Alcotest.fail "two mem ops"

let test_memdep_same_cell () =
  let cfg, md = lower_one (fun b a _ ->
      let v = B.load b a (imm 3) in
      B.store b a (imm 3) v)
  in
  let mem_ops = List.filter (Memdep.is_mem md) (Voltron_ir.Cfg.all_ops cfg) in
  match mem_ops with
  | [ x; y ] ->
    Alcotest.(check bool) "same cell aliases" true (Memdep.same_instance_alias md x y);
    Alcotest.(check bool) "ever aliases" true (Memdep.ever_alias md x y)
  | _ -> Alcotest.fail "two mem ops"

(* Spill-slot-style accesses: two accesses into the same array through
   indices loaded from memory (not affine in anything) must conservatively
   alias — dropping the edge would let the partitioner reorder them across
   cores.  Accesses to a different array still never alias. *)
let test_memdep_unknown_index_conservative () =
  let cfg, md = lower_one (fun b a a2 ->
      let x = B.load b a2 (imm 0) in
      let y = B.load b a2 (imm 1) in
      let v = B.load b a x in
      B.store b a y v)
  in
  let mem_ops = List.filter (Memdep.is_mem md) (Voltron_ir.Cfg.all_ops cfg) in
  match mem_ops with
  | [ slot0; slot1; ld; st ] ->
    Alcotest.(check bool) "unknown indices alias conservatively" true
      (Memdep.ever_alias md ld st);
    Alcotest.(check bool) "also within one instance" true
      (Memdep.same_instance_alias md ld st);
    Alcotest.(check bool) "distinct slots stay disjoint" false
      (Memdep.same_instance_alias md slot0 slot1);
    Alcotest.(check bool) "different arrays still never alias" false
      (Memdep.ever_alias md slot0 st)
  | _ -> Alcotest.fail "four mem ops"

(* Loop-carried dependence at distance 2: a[i+2] = f(a[i]) never collides
   within one iteration, but iteration i's store feeds iteration i+2's
   load, so the cross-iteration edge must survive. *)
let test_memdep_loop_carried_distance_2 () =
  let cfg, md = lower_one (fun b a _ ->
      B.for_ b ~from:(imm 0) ~limit:(imm 16) (fun i ->
          let v = B.load b a i in
          B.store b a (B.add b i (imm 2)) v))
  in
  let mem_ops = List.filter (Memdep.is_mem md) (Voltron_ir.Cfg.all_ops cfg) in
  match mem_ops with
  | [ ld; st ] ->
    Alcotest.(check bool) "disjoint within one iteration" false
      (Memdep.same_instance_alias md ld st);
    Alcotest.(check bool) "carried across iterations" true (Memdep.ever_alias md ld st)
  | _ -> Alcotest.fail "two mem ops"

(* --- Sharpened dependence oracle -------------------------------------------- *)

(* A single-array loop region lowered with the oracle on or off. *)
let lower_sized ?(sharpen = true) ~size ~limit stmts_build =
  let b = B.create "t" in
  let a = B.array b ~name:"a" ~size () in
  B.region b "main" (fun () ->
      B.for_ b ~from:(imm 0) ~limit:(imm limit) (fun i -> stmts_build b a i));
  let p = B.finish b in
  let lay = Voltron_ir.Layout.compute p in
  let ctx = Voltron_ir.Lower.make_ctx ~layout:lay ~first_vreg:p.Hir.n_vregs in
  match p.Hir.regions with
  | [ r ] ->
    let cfg = Voltron_ir.Lower.region ctx r.Hir.stmts in
    (cfg, Memdep.create ~sharpen ~region_stmts:r.Hir.stmts cfg)
  | _ -> Alcotest.fail "one region"

let load_store_verdict (cfg, md) =
  match List.filter (Memdep.is_mem md) (Voltron_ir.Cfg.all_ops cfg) with
  | [ ld; st ] -> Memdep.ever_alias md ld st
  | _ -> Alcotest.fail "two mem ops"

(* Double-buffer halves through a masked subscript: load a[8 + (i land 7)]
   vs store a[i land 7]. The affine pass cannot express the mask, so only
   the interval oracle separates the windows. *)
let test_memdep_masked_halves () =
  let build b a i =
    let v = B.load b a (B.add b (imm 8) (B.binop b Inst.And i (imm 7))) in
    B.store b a (B.binop b Inst.And i (imm 7)) v
  in
  Alcotest.(check bool) "affine alone conservatively aliases" true
    (load_store_verdict (lower_sized ~sharpen:false ~size:64 ~limit:16 build));
  Alcotest.(check bool) "oracle proves windows disjoint" false
    (load_store_verdict (lower_sized ~size:64 ~limit:16 build))

(* Negative-stride store a[7 - i] against load a[base + i]: ranges
   [0, 7] vs [base, base + 7] — disjoint for base = 8, colliding for
   base = 0. Exact verdict both ways. *)
let test_memdep_negative_stride () =
  let build base b a i =
    let v = B.load b a (B.add b (imm base) i) in
    B.store b a (B.sub b (imm 7) i) v
  in
  Alcotest.(check bool) "shifted ranges disjoint" false
    (load_store_verdict (lower_sized ~size:64 ~limit:8 (build 8)));
  Alcotest.(check bool) "overlapping ranges alias" true
    (load_store_verdict (lower_sized ~size:64 ~limit:8 (build 0)))

(* Parity: store a[2i] (even cells) vs load a[513 - 2i] (odd cells). The
   intervals overlap; only the congruence component separates them. *)
let test_memdep_parity () =
  let build b a i =
    let v = B.load b a (B.sub b (imm 513) (B.mul b i (imm 2))) in
    B.store b a (B.mul b i (imm 2)) v
  in
  Alcotest.(check bool) "even/odd cells disjoint" false
    (load_store_verdict (lower_sized ~size:514 ~limit:256 build))

(* The window shape end-to-end through DOALL classification: speculative
   on affine evidence alone, proven once the oracle separates the
   halves. *)
let classify_sharpen ~sharpen build =
  let b = B.create "t" in
  let a = B.array b ~name:"a" ~size:64 ~init:(fun i -> i) () in
  B.region b "main" (fun () ->
      B.for_ b ~from:(imm 0) ~limit:(imm 32) (fun i -> build b a i));
  let p = B.finish b in
  let profile = Profile.collect p in
  match p.Hir.regions with
  | [ { Hir.stmts = [ { Hir.sid; node = Hir.For loop; _ } ]; _ } ] ->
    Doall.classify ~sharpen loop ~profile ~loop_sid:sid
  | _ -> Alcotest.fail "shape"

let test_doall_sharpen_upgrade () =
  let build b a i =
    let v = B.load b a (B.add b (imm 32) (B.binop b Inst.And i (imm 31))) in
    B.store b a i v
  in
  (match classify_sharpen ~sharpen:false build with
  | Doall.Speculative _ -> ()
  | Doall.Proven _ -> Alcotest.fail "affine alone cannot prove the window"
  | Doall.Rejected r -> Alcotest.fail ("rejected: " ^ r));
  match classify_sharpen ~sharpen:true build with
  | Doall.Proven [] -> ()
  | Doall.Proven _ -> Alcotest.fail "no accumulators expected"
  | Doall.Speculative _ -> Alcotest.fail "oracle should prove the window"
  | Doall.Rejected r -> Alcotest.fail ("rejected: " ^ r)

let test_depgraph_edges () =
  let cfg, md = lower_one (fun b a _ ->
      let v = B.load b a (imm 0) in
      let w = B.mul b v (imm 3) in
      B.store b a (imm 1) w)
  in
  let dg = Depgraph.build ~cfg ~memdep:md ~latency:Voltron_machine.Config.latency in
  (* load -> mul (reg) and mul -> store (reg); the affine test proves
     a[0] and a[1] disjoint, so no memory edge. *)
  Alcotest.(check int) "two register edges" 2 (List.length dg.Depgraph.edges);
  (* Priorities decrease along the chain. *)
  Alcotest.(check bool) "source priority highest" true
    (dg.Depgraph.priority.(0) > dg.Depgraph.priority.(Array.length dg.Depgraph.ops - 1))

let () =
  Alcotest.run "analysis"
    [
      ( "affine",
        [
          Alcotest.test_case "linexpr algebra" `Quick test_linexpr_algebra;
          Alcotest.test_case "linear forms" `Quick test_index_forms_linear;
          Alcotest.test_case "body defs killed" `Quick test_index_forms_kills_loop_body_defs;
          Alcotest.test_case "cross-iteration alias" `Quick test_cross_iteration_alias;
          Alcotest.test_case "cross-iteration distance" `Quick test_cross_iteration_distance;
          Alcotest.test_case "cross-iteration other loop variables" `Quick
            test_cross_iteration_other_var;
        ] );
      ( "profile",
        [
          Alcotest.test_case "trips and raw" `Quick test_profile_trips_and_raw;
          Alcotest.test_case "miss rates" `Quick test_profile_miss_rates;
          Alcotest.test_case "oracle keyed to program" `Quick
            test_profile_oracle_keyed_to_program;
        ] );
      ( "doall",
        [
          Alcotest.test_case "proven" `Quick test_doall_proven;
          Alcotest.test_case "accumulator" `Quick test_doall_accumulator;
          Alcotest.test_case "scalar recurrence" `Quick test_doall_rejects_scalar_recurrence;
          Alcotest.test_case "memory recurrence" `Quick test_doall_rejects_memory_recurrence;
          Alcotest.test_case "speculative indirect" `Quick test_doall_speculative_indirect;
        ] );
      ( "memdep",
        [
          Alcotest.test_case "arrays disjoint" `Quick test_memdep_arrays_disjoint;
          Alcotest.test_case "same cell" `Quick test_memdep_same_cell;
          Alcotest.test_case "unknown index conservative" `Quick
            test_memdep_unknown_index_conservative;
          Alcotest.test_case "loop carried distance 2" `Quick
            test_memdep_loop_carried_distance_2;
          Alcotest.test_case "depgraph edges" `Quick test_depgraph_edges;
        ] );
      ( "sharpen",
        [
          Alcotest.test_case "masked halves" `Quick test_memdep_masked_halves;
          Alcotest.test_case "negative stride" `Quick test_memdep_negative_stride;
          Alcotest.test_case "parity" `Quick test_memdep_parity;
          Alcotest.test_case "doall upgrade" `Quick test_doall_sharpen_upgrade;
        ] );
    ]
