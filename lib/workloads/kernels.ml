module B = Voltron_ir.Builder
module Hir = Voltron_ir.Hir
module Inst = Voltron_isa.Inst
module Rng = Voltron_util.Rng

let imm = B.imm

let resident_size = 512  (* 2 kB: fits the 4 kB L1 *)
let missy_size = 8192  (* 32 kB: overflows L1, lives in L2 *)

(* The [n] next [in_range rng lo hi] draws as an initialiser. The
   interpreter and every compile evaluate an initialiser again, so it
   must be a pure function of the index: each value is drawn on demand
   from the stream position, and no program keeps a copy of its data. *)
let init_of rng n lo hi = Rng.range_stream rng ~n ~lo ~hi

(* --- DOALL family ---------------------------------------------------------- *)

let doall_dense b ~name ~n ~work ~seed =
  let rng = Rng.create seed in
  let src = B.array b ~name:(name ^ "_src") ~size:n ~init:(init_of rng n 1 97) () in
  let dst = B.array b ~name:(name ^ "_dst") ~size:n () in
  B.region b name (fun () ->
      B.for_ b ~from:(imm 0) ~limit:(imm n) (fun i ->
          let v = B.load b src i in
          let rec grind acc k =
            if k = 0 then acc
            else
              let acc = B.add b (B.mul b acc (imm (3 + k))) (imm k) in
              grind acc (k - 1)
          in
          (* Two independent chains: the loop is DOALL for LLP, but each
             iteration also carries exploitable width, as real dense-loop
             bodies do — coupled-mode ILP gets its share here too. *)
          let c1 = grind v ((work + 1) / 2) in
          let c2 = grind (B.binop b Inst.Xor v (imm 0x5a)) (max 1 (work / 2)) in
          let r = B.binop b Inst.And (B.add b c1 c2) (imm 0xffffff) in
          B.store b dst i r))

let doall_indirect b ~name ~n ~work ~seed =
  let rng = Rng.create seed in
  (* A permutation index defeats affine analysis; profiling sees no
     cross-iteration RAW, so the loop runs speculatively under TM. *)
  let perm = Array.init n (fun i -> i) in
  Rng.shuffle rng perm;
  let idx = B.array b ~name:(name ^ "_idx") ~size:n ~init:(fun i -> perm.(i)) () in
  let src = B.array b ~name:(name ^ "_src") ~size:n ~init:(init_of rng n 1 211) () in
  let dst = B.array b ~name:(name ^ "_dst") ~size:n () in
  B.region b name (fun () ->
      B.for_ b ~from:(imm 0) ~limit:(imm n) (fun i ->
          let j = B.load b idx i in
          let v = B.load b src j in
          let rec grind acc k =
            if k = 0 then acc
            else grind (B.binop b Inst.Xor (B.mul b acc (imm 5)) (imm k)) (k - 1)
          in
          let c1 = grind v ((work + 1) / 2) in
          let c2 = grind (B.add b v (imm 7)) (max 1 (work / 2)) in
          let r = B.add b c1 c2 in
          (* Scatter through the permutation: the affine test cannot prove
             the stores disjoint, so this is the statistical-DOALL path —
             chunks run under the TM even though no conflict ever occurs. *)
          B.store b dst j r))

let doall_reduce b ~name ~n ~seed =
  let rng = Rng.create seed in
  let src = B.array b ~name:(name ^ "_src") ~size:n ~init:(init_of rng n 1 997) () in
  let out = B.array b ~name:(name ^ "_out") ~size:8 () in
  B.region b name (fun () ->
      let acc = B.fresh b in
      B.assign b acc (Hir.Operand (imm 0));
      B.for_ b ~from:(imm 0) ~limit:(imm n) (fun i ->
          let v = B.load b src i in
          let sq = B.mul b v v in
          let scaled = B.binop b Inst.Shr sq (imm 3) in
          B.assign b acc (Hir.Alu (Inst.Add, Hir.Reg acc, scaled)));
      B.store b out (imm 0) (Hir.Reg acc))

(* Read-modify-write scatter with [conflicts] iterations redirected onto
   cell 0: used by the TM mis-speculation ablation. With [conflicts = 0]
   it is a clean statistical DOALL; compiled against the clean profile but
   run with collisions, later chunks read cells earlier chunks wrote, the
   TM detects the RAW at commit and re-executes serially — the cost curve
   of wrong speculation. *)
let doall_rmw b ~name ~n ~conflicts ~seed =
  let rng = Rng.create seed in
  let perm = Array.init n (fun i -> i) in
  Rng.shuffle rng perm;
  if conflicts > 0 then begin
    (* Redirect evenly-spaced iterations to a single hot cell. *)
    let stride = max 1 (n / conflicts) in
    let k = ref 0 in
    while !k < n do
      perm.(!k) <- 0;
      k := !k + stride
    done
  end;
  let idx = B.array b ~name:(name ^ "_idx") ~size:n ~init:(fun i -> perm.(i)) () in
  let dst = B.array b ~name:(name ^ "_dst") ~size:n ~init:(fun i -> i) () in
  B.region b name (fun () ->
      B.for_ b ~from:(imm 0) ~limit:(imm n) (fun i ->
          let j = B.load b idx i in
          let v = B.load b dst j in
          B.store b dst j (B.add b (B.mul b v (imm 3)) (imm 1))))

(* GSM LTP-style double-buffered window: every iteration reads the fixed
   history half of [hist] through a masked subscript and writes the
   current sample into the live half by the induction variable. The mask
   defeats the affine dependence test (the store/load pair is Unknown), so
   with profiling alone the loop can only run as a statistical DOALL under
   the TM; the abstract interpreter bounds the masked read to
   [half, half+win) and the store to [0, n) with n <= half, proving the
   halves disjoint — the loop upgrades to a proven DOALL with no
   speculation. *)
let doall_window b ~name ~n ~work ~seed =
  let rng = Rng.create seed in
  let win = 256 in
  let half = max win n in
  let hist =
    B.array b ~name:(name ^ "_hist") ~size:(half + win)
      ~init:(init_of rng (half + win) 1 255) ()
  in
  let src = B.array b ~name:(name ^ "_src") ~size:n ~init:(init_of rng n 1 97) () in
  B.region b name (fun () ->
      B.for_ b ~from:(imm 0) ~limit:(imm n) (fun i ->
          let j = B.binop b Inst.And i (imm (win - 1)) in
          let h = B.load b hist (B.add b j (imm half)) in
          let s = B.load b src i in
          let rec grind acc k =
            if k = 0 then acc
            else grind (B.add b (B.mul b acc (imm (3 + k))) (imm k)) (k - 1)
          in
          let v = grind (B.add b h s) (max 1 work) in
          B.store b hist i (B.binop b Inst.And v (imm 0xffff))))

(* --- ILP (coupled) --------------------------------------------------------- *)

let ilp_wide b ~name ~n ~taps ~seed =
  let rng = Rng.create seed in
  let size = min 256 resident_size in
  let src = B.array b ~name:(name ^ "_src") ~size ~init:(init_of rng size 1 255) () in
  let dst = B.array b ~name:(name ^ "_dst") ~size () in
  let lanes = max 2 (min 4 taps) in
  B.region b name (fun () ->
      (* A butterfly of [lanes] scalar recurrences. Each iteration every
         lane computes an intermediate y_k from its state, the lanes
         exchange intermediates around a ring, and each state update folds
         in a neighbour's SAME-iteration intermediate. The recurrence
         cycle therefore crosses cores inside every iteration: a 1-cycle
         direct-mode move when coupled, but a full 3-cycle queue round
         when decoupled — queue buffering cannot hide it, so coupled-mode
         ILP wins (paper 4.2: predictable latencies, frequent inter-core
         communication). The ring is one big SCC, ruling out DSWP, and the
         scalar recurrences rule out DOALL. *)
      let states = Array.init lanes (fun _ -> B.fresh b) in
      Array.iteri (fun k s -> B.assign b s (Hir.Operand (imm (k + 1)))) states;
      B.for_ b ~from:(imm 0) ~limit:(imm n) (fun i ->
          let j = B.binop b Inst.And i (imm (size - 1)) in
          let v = B.load b src j in
          let ys =
            Array.mapi
              (fun k s ->
                let t1 = B.mul b (Hir.Reg s) (imm (3 + (2 * k))) in
                let t2 = B.add b t1 v in
                let t3 = B.binop b Inst.Shr t2 (imm 1) in
                let t4 = B.add b t3 (B.binop b Inst.And (Hir.Reg s) (imm 255)) in
                B.binop b Inst.Xor t4 (imm (17 * (k + 1))))
              states
          in
          Array.iteri
            (fun k s ->
              let left = ys.((k + lanes - 1) mod lanes) in
              let right = ys.((k + 1) mod lanes) in
              let t = B.add b (B.mul b left (imm 3)) right in
              let folded = B.binop b Inst.Xor t (Hir.Reg s) in
              B.assign b s (Hir.Alu (Inst.And, folded, imm 0xffff)))
            states;
          let mixed =
            B.binop b Inst.Xor (Hir.Reg states.(0)) (Hir.Reg states.(lanes / 2))
          in
          B.store b dst j mixed))

(* --- Fine-grain TLP: strands ----------------------------------------------- *)

let strands_streams b ~name ~n ~streams ~seed =
  let rng = Rng.create seed in
  let size = missy_size in
  (* Large streams walked with a prime stride so consecutive iterations
     leave the current cache line: sustained L1 misses, overlappable
     across cores (the paper's MLP argument for strands). *)
  let arrays =
    List.init streams (fun s ->
        B.array b
          ~name:(Printf.sprintf "%s_s%d" name s)
          ~size
          ~init:(init_of rng size 1 ((s * 37) + 91))
          ())
  in
  let out = B.array b ~name:(name ^ "_out") ~size:8 () in
  B.region b name (fun () ->
      (* A counted loop (immediate bounds) lets every core run the branch
         locally (induction replication); the per-stream position
         recurrences and the non-accumulator checksum keep DOALL out, so
         the region is genuine strand territory: each core owns a stream,
         its misses overlapping the others' (MLP). *)
      let positions = List.map (fun _ -> B.fresh b) arrays in
      let chk = B.fresh b in
      List.iteri
        (fun k pos -> B.assign b pos (Hir.Operand (imm (k * 577))))
        positions;
      B.assign b chk (Hir.Operand (imm 0));
      B.for_ b ~from:(imm 0) ~limit:(imm n) (fun _i ->
          let vals =
            List.mapi
              (fun k (arr, pos) ->
                (* Stagger each stream's address computation so the loads
                   sit at different schedule depths: in coupled mode the
                   stall bus then serialises their misses (a miss freezes
                   every core before the next stream's load can issue),
                   while decoupled cores issue their own loads regardless
                   — the paper's case for fine-grain strands. *)
                let rec deepen o j =
                  if j = 0 then o else deepen (B.add b o (imm 0)) (j - 1)
                in
                let addr = deepen (Hir.Reg pos) (2 * k) in
                let v = B.load b arr addr in
                let w = B.mul b v (imm 3) in
                let w2 = B.add b (B.mul b w (imm 7)) (imm 11) in
                (* Per-stream position recurrence: a prime stride through a
                   power-of-two array lands on a new line every time. *)
                let next =
                  B.binop b Inst.And
                    (B.add b (Hir.Reg pos) (imm (1031 + (k * 1032))))
                    (imm (size - 1))
                in
                B.assign b pos (Hir.Operand next);
                B.binop b Inst.Xor w2 (imm 5))
              (List.combine arrays positions)
          in
          let merged = List.fold_left (fun acc v -> B.add b acc v) (imm 0) vals in
          let x = B.binop b Inst.Xor (Hir.Reg chk) merged in
          B.assign b chk (Hir.Operand x));
      B.store b out (imm 0) (Hir.Reg chk);
      List.iteri
        (fun k pos -> B.store b out (imm (k + 1)) (Hir.Reg pos))
        positions)

(* A gzip-style compare loop: a do-while whose exit condition merges
   words from two large streams every iteration, so the predicate is
   computed on one core and shipped to the others through the queue
   network (the "predicate recv" slice of paper Fig. 12). Strand gains
   here are modest (paper reports 1.2x on the real gzip loop): the
   per-iteration condition round-trip limits the overlap to the two
   streams' cache misses. *)
let strands_compare b ~name ~n ~seed =
  let rng = Rng.create seed in
  let size = missy_size in
  let sentinel = min (size - 9) (n * 4) in
  let s1 =
    B.array b ~name:(name ^ "_scan") ~size ~init:(init_of rng size 1 251) ()
  in
  (* Matches the scan side everywhere, then forces a mismatch at the
     sentinel to terminate the compare loop after ~n iterations. *)
  let s2 =
    B.array b
      ~name:(name ^ "_match")
      ~size
      ~init:(fun i -> if i >= sentinel then 255 else 0)
      ()
  in
  let out = B.array b ~name:(name ^ "_out") ~size:8 () in
  B.region b name (fun () ->
      let pos = B.fresh b in
      B.assign b pos (Hir.Operand (imm 0));
      B.do_while b (fun () ->
          let lds arr =
            List.init 4 (fun q ->
                let v = B.load b arr (B.add b (Hir.Reg pos) (imm q)) in
                B.binop b Inst.And v (imm 255))
          in
          let a = lds s1 and c = lds s2 in
          let eqs = List.map2 (fun x y -> B.cmp b Inst.Ge x y) a c in
          let all_eq =
            List.fold_left (fun acc e -> B.binop b Inst.And acc e) (imm 1) eqs
          in
          B.assign b pos (Hir.Alu (Inst.Add, Hir.Reg pos, imm 4));
          let inside = B.cmp b Inst.Lt (Hir.Reg pos) (imm (size - 8)) in
          B.binop b Inst.And all_eq inside);
      B.store b out (imm 0) (Hir.Reg pos))

(* --- Fine-grain TLP: DSWP pipeline ----------------------------------------- *)

let dswp_pipe b ~name ~n ~work ~seed =
  let rng = Rng.create seed in
  let size = missy_size in
  let next = B.array b ~name:(name ^ "_next") ~size ~init:(fun i -> (i + 4889) mod size) () in
  let data = B.array b ~name:(name ^ "_data") ~size ~init:(init_of rng size 1 127) () in
  let out = B.array b ~name:(name ^ "_out") ~size:(max 8 n) () in
  B.region b name (fun () ->
      let p = B.fresh b in
      B.assign b p (Hir.Operand (imm 0));
      B.for_ b ~from:(imm 0) ~limit:(imm n) (fun i ->
          (* Stage 1 (recurrence SCC): pointer walk. *)
          let p' = B.load b next (Hir.Reg p) in
          B.assign b p (Hir.Operand p');
          (* Stage 2: heavy dependent work off the visited element, with
             some width so coupled mode is not hopeless here either. *)
          let v = B.load b data p' in
          let rec grind acc k =
            if k = 0 then acc
            else grind (B.add b (B.mul b acc (imm 3)) (imm (k * 7))) (k - 1)
          in
          let c1 = grind v ((work + 1) / 2) in
          let c2 = grind (B.binop b Inst.Xor v (imm 0x33)) (max 1 (work / 2)) in
          let r = B.add b c1 c2 in
          B.store b out i (B.binop b Inst.And r (imm 0xffffff))))

(* --- Sequential ------------------------------------------------------------- *)

let seq_chase b ~name ~n ~seed =
  ignore seed;
  let size = resident_size in
  let next = B.array b ~name:(name ^ "_next") ~size ~init:(fun i -> (i + 191) mod size) () in
  let out = B.array b ~name:(name ^ "_out") ~size:8 () in
  B.region b name (fun () ->
      let p = B.fresh b in
      B.assign b p (Hir.Operand (imm 0));
      B.for_ b ~from:(imm 0) ~limit:(imm n) (fun _i ->
          let p' = B.load b next (Hir.Reg p) in
          B.assign b p (Hir.Operand p'));
      B.store b out (imm 0) (Hir.Reg p))

(* --- Paper micro-examples --------------------------------------------------- *)

let gsm_llp_region b ~n =
  (* Fig. 7, scaled from 8 elements to [n]:
       for i: uf[i] = u[i]; rpf[i] = rp[i] * scalef *)
  let u = B.array b ~name:"u" ~size:n ~init:(fun i -> (i * 31) mod 199) () in
  let rp = B.array b ~name:"rp" ~size:n ~init:(fun i -> (i * 7) mod 97) () in
  let uf = B.array b ~name:"uf" ~size:n () in
  let rpf = B.array b ~name:"rpf" ~size:n () in
  B.region b "gsm_llp" (fun () ->
      let scalef = B.mov b (imm 327) in
      B.for_ b ~from:(imm 0) ~limit:(imm n) (fun i ->
          let ui = B.load b u i in
          B.store b uf i ui;
          let rpi = B.load b rp i in
          B.store b rpf i (B.mul b rpi scalef)))

let gzip_strands_region b ~n =
  (* Fig. 8: do { ... } while (scan words == match words && scan < strend),
     reading two large byte streams. *)
  let size = missy_size in
  let scan =
    B.array b ~name:"scan" ~size ~init:(fun i -> if i < size - 7 then i mod 251 else 0) ()
  in
  let match_ =
    B.array b ~name:"match" ~size
      ~init:(fun i -> if i < n * 8 then i mod 251 else 255)
      ()
  in
  let out = B.array b ~name:"gz_out" ~size:8 () in
  B.region b "gzip_strands" (fun () ->
      let pos = B.fresh b in
      B.assign b pos (Hir.Operand (imm 0));
      B.do_while b (fun () ->
          (* Core-0 strand: four scan loads; core-1 strand: four match
             loads (the eBUG split of Fig. 8(b)/(c)). *)
          let lds k arr =
            List.init 4 (fun q -> B.load b arr (B.add b (Hir.Reg pos) (imm (q + k))))
          in
          let s = lds 0 scan in
          let m = lds 0 match_ in
          let eqs = List.map2 (fun a c -> B.cmp b Inst.Eq a c) s m in
          let all_eq =
            List.fold_left (fun acc e -> B.binop b Inst.And acc e) (imm 1) eqs
          in
          B.assign b pos (Hir.Alu (Inst.Add, Hir.Reg pos, imm 4));
          let inside = B.cmp b Inst.Lt (Hir.Reg pos) (imm (size - 8)) in
          B.binop b Inst.And all_eq inside);
      B.store b out (imm 0) (Hir.Reg pos))

let gsm_ilp_region b ~n =
  (* Fig. 9: the gsm short-term synthesis filter. Two saturating multiply
     chains per iteration with a loop-carried v[] recurrence. The filter
     state is small (the real gsm filter order is 8); iterate over it. *)
  let size = 128 in
  let rrp = B.array b ~name:"rrp" ~size ~init:(fun i -> ((i * 131) mod 16384) - 8192) () in
  let v = B.array b ~name:"v" ~size:(size + 1) ~init:(fun i -> ((i * 57) mod 8192) - 4096) () in
  let out = B.array b ~name:"gsmilp_out" ~size:8 () in
  let min_word = -32768 and max_word = 32767 in
  B.region b "gsm_ilp" (fun () ->
      let sri = B.fresh b in
      B.assign b sri (Hir.Operand (imm 1021));
      B.for_ b ~from:(imm 0) ~limit:(imm n) (fun i ->
          let j = B.binop b Inst.And i (imm (size - 1)) in
          let tmp1 = B.load b rrp j in
          let tmp2 = B.load b v j in
          let sat_mul a c =
            let prod = B.mul b a c in
            let shifted = B.binop b Inst.Shr (B.add b prod (imm 16384)) (imm 15) in
            let both_min =
              B.binop b Inst.And
                (B.cmp b Inst.Eq a (imm min_word))
                (B.cmp b Inst.Eq c (imm min_word))
            in
            B.select b both_min (imm max_word) (B.binop b Inst.And shifted (imm 0xffff))
          in
          let m1 = sat_mul tmp1 tmp2 in
          let sri' = B.sub b (Hir.Reg sri) m1 in
          B.assign b sri (Hir.Operand sri');
          let m2 = sat_mul tmp1 sri' in
          let vnext = B.add b tmp2 m2 in
          let sat =
            B.select b
              (B.cmp b Inst.Gt vnext (imm max_word))
              (imm max_word) vnext
          in
          B.store b v (B.add b j (imm 1)) sat);
      B.store b out (imm 0) (Hir.Reg sri))
