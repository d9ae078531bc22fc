module B = Voltron_ir.Builder

type mix = {
  ilp : int;
  tlp : int;
  llp : int;
  seq : int;
}

type benchmark = {
  bench_name : string;
  bench_mix : mix;
  build : ?scale:float -> unit -> Voltron_ir.Hir.program;
}

(* Target serial execution time per benchmark, in cycles; each region gets
   iterations = share * budget / per-iteration cost, so the mix describes
   shares of serial *time* and regions run long enough to amortise cold
   misses and region-entry overhead. *)
let budget = 120_000

let scaled scale n = max 16 (int_of_float (float_of_int n *. scale))

(* Which TLP flavour a benchmark leans on: counted multi-stream strands,
   pointer-chasing pipelines, or a mix of strands with a gzip-style
   do-while compare loop (whose cross-core exit predicate produces the
   Fig. 12 predicate-receive stalls). *)
type tlp_kind = Strands | Pipe | Mixed

let build_mixed ~name ~mix ~tlp_kind ~llp_kind ~seed ?(scale = 1.0) () =
  let b = B.create name in
  let part pct cost = scaled scale (budget * pct / 100 / cost) in
  let seed = ref seed in
  let next_seed () =
    incr seed;
    !seed * 7919
  in
  (* Region order mirrors a typical benchmark: setup, kernel loops, then
     output. Emit larger character classes as two regions for variety. *)
  let emit_ilp n tag =
    if n > 0 then Kernels.ilp_wide b ~name:(name ^ "_ilp" ^ tag) ~n ~taps:6 ~seed:(next_seed ())
  in
  let emit_tlp n tag =
    if n > 0 then
      match tlp_kind with
      | Strands ->
        Kernels.strands_streams b ~name:(name ^ "_tlp" ^ tag) ~n ~streams:3
          ~seed:(next_seed ())
      | Pipe -> Kernels.dswp_pipe b ~name:(name ^ "_tlp" ^ tag) ~n ~work:6 ~seed:(next_seed ())
      | Mixed ->
        Kernels.strands_streams b ~name:(name ^ "_tlp" ^ tag) ~n:(n / 2)
          ~streams:3 ~seed:(next_seed ());
        Kernels.strands_compare b
          ~name:(name ^ "_tlpc" ^ tag)
          ~n:(n / 3) ~seed:(next_seed ())
  in
  let emit_llp n tag =
    if n > 0 then
      match llp_kind with
      | `Dense -> Kernels.doall_dense b ~name:(name ^ "_llp" ^ tag) ~n ~work:4 ~seed:(next_seed ())
      | `Indirect ->
        Kernels.doall_indirect b ~name:(name ^ "_llp" ^ tag) ~n ~work:3 ~seed:(next_seed ())
      | `Reduce -> Kernels.doall_reduce b ~name:(name ^ "_llp" ^ tag) ~n ~seed:(next_seed ())
      | `Window ->
        Kernels.doall_window b ~name:(name ^ "_llp" ^ tag) ~n ~work:4 ~seed:(next_seed ())
  in
  let emit_seq n tag =
    if n > 0 then Kernels.seq_chase b ~name:(name ^ "_seq" ^ tag) ~n ~seed:(next_seed ())
  in
  (* Divisors approximate serial cycles per iteration (ops + expected miss
     stalls), so each class's share of serial time tracks the mix. *)
  let ilp_n = part mix.ilp 41 in
  let tlp_n =
    part mix.tlp (match tlp_kind with Strands -> 47 | Pipe -> 45 | Mixed -> 40)
  in
  let llp_n =
    part mix.llp
      (match llp_kind with `Dense -> 13 | `Indirect -> 14 | `Reduce -> 7 | `Window -> 14)
  in
  let seq_n = part mix.seq 5 in
  if mix.ilp >= 40 then begin
    emit_ilp (ilp_n / 2) "a";
    emit_ilp (ilp_n - (ilp_n / 2)) "b"
  end
  else emit_ilp ilp_n "a";
  if mix.llp >= 40 then begin
    emit_llp (llp_n / 2) "a";
    emit_llp (llp_n - (llp_n / 2)) "b"
  end
  else emit_llp llp_n "a";
  if mix.tlp >= 40 then begin
    emit_tlp (tlp_n / 2) "a";
    emit_tlp (tlp_n - (tlp_n / 2)) "b"
  end
  else emit_tlp tlp_n "a";
  emit_seq seq_n "a";
  B.finish b

let def name mix tlp_kind llp_kind seed =
  {
    bench_name = name;
    bench_mix = mix;
    build = (fun ?scale () -> build_mixed ~name ~mix ~tlp_kind ~llp_kind ~seed ?scale ());
  }

let m ilp tlp llp seq = { ilp; tlp; llp; seq }

(* Mix percentages approximate the per-benchmark breakdown of the paper's
   Fig. 3 (ILP avg 30%, fine-grain TLP 32%, LLP 31%, single-core 7%). *)
let all =
  [
    def "052.alvinn" (m 20 15 60 5) Pipe `Dense 11;
    def "056.ear" (m 25 15 55 5) Pipe `Dense 12;
    def "132.ijpeg" (m 40 20 35 5) Strands `Dense 13;
    def "164.gzip" (m 25 55 5 15) Mixed `Indirect 14;
    def "171.swim" (m 10 10 75 5) Pipe `Dense 15;
    def "172.mgrid" (m 15 10 70 5) Pipe `Dense 16;
    def "175.vpr" (m 35 30 20 15) Mixed `Indirect 17;
    def "177.mesa" (m 55 20 15 10) Pipe `Dense 18;
    def "179.art" (m 15 60 20 5) Strands `Dense 19;
    def "183.equake" (m 20 45 30 5) Pipe `Indirect 20;
    def "197.parser" (m 30 25 10 35) Mixed `Indirect 21;
    def "255.vortex" (m 40 30 10 20) Mixed `Indirect 22;
    def "256.bzip2" (m 30 50 10 10) Mixed `Reduce 23;
    def "cjpeg" (m 35 15 40 10) Strands `Dense 24;
    def "djpeg" (m 45 15 35 5) Strands `Dense 25;
    def "epic" (m 15 65 15 5) Pipe `Dense 26;
    def "g721decode" (m 60 20 10 10) Pipe `Reduce 27;
    def "g721encode" (m 60 20 10 10) Pipe `Reduce 28;
    (* The gsm pair carries the long-term-predictor window kernel: its
       masked history reads are the region the sharpened dependence oracle
       upgrades from speculative to proven DOALL. *)
    def "gsmdecode" (m 45 15 35 5) Pipe `Window 29;
    def "gsmencode" (m 50 15 30 5) Pipe `Window 30;
    def "mpeg2dec" (m 35 25 35 5) Strands `Dense 31;
    def "mpeg2enc" (m 30 30 35 5) Pipe `Dense 32;
    def "rawcaudio" (m 65 15 10 10) Pipe `Reduce 33;
    def "rawdaudio" (m 65 15 10 10) Pipe `Reduce 34;
    def "unepic" (m 30 20 45 5) Strands `Dense 35;
  ]

let by_name name =
  match List.find_opt (fun b -> b.bench_name = name) all with
  | Some b -> b
  | None -> raise Not_found

let micro_gsm_llp ?(scale = 1.0) () =
  let b = B.create "micro_gsm_llp" in
  Kernels.gsm_llp_region b ~n:(scaled scale 1024);
  B.finish b

let micro_gzip_strands ?(scale = 1.0) () =
  let b = B.create "micro_gzip_strands" in
  Kernels.gzip_strands_region b ~n:(scaled scale 512);
  B.finish b

let micro_gsm_ilp ?(scale = 1.0) () =
  let b = B.create "micro_gsm_ilp" in
  Kernels.gsm_ilp_region b ~n:(scaled scale 1024);
  B.finish b

type micro = {
  micro_name : string;
  micro_label : string;
  micro_paper : float;
  micro_build : ?scale:float -> unit -> Voltron_ir.Hir.program;
}

let micros =
  [
    {
      micro_name = "micro:gsm_llp";
      micro_label = "gsmdecode DOALL (Fig.7)";
      micro_paper = 1.9;
      micro_build = micro_gsm_llp;
    };
    {
      micro_name = "micro:gzip_strands";
      micro_label = "164.gzip strands (Fig.8)";
      micro_paper = 1.2;
      micro_build = micro_gzip_strands;
    };
    {
      micro_name = "micro:gsm_ilp";
      micro_label = "gsmdecode ILP (Fig.9)";
      micro_paper = 1.78;
      micro_build = micro_gsm_ilp;
    };
  ]
