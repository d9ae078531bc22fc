(* Unit and property tests for voltron_util: RNG determinism, Vec
   behaviour, statistics, table rendering, and digraph algorithms (Tarjan
   SCC, topological sort). *)

module Rng = Voltron_util.Rng
module Vec = Voltron_util.Vec
module Stat = Voltron_util.Stat
module Table = Voltron_util.Table
module Digraph = Voltron_util.Digraph

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.next a) (Rng.next b)
  done

let test_rng_bounds () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let x = Rng.int r 10 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 10);
    let y = Rng.in_range r 5 9 in
    Alcotest.(check bool) "in closed range" true (y >= 5 && y <= 9)
  done

let test_rng_split_independent () =
  let a = Rng.create 1 in
  let b = Rng.split a 0 in
  let xs = List.init 10 (fun _ -> Rng.next a) in
  let ys = List.init 10 (fun _ -> Rng.next b) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_rng_split_pure () =
  (* split must not advance the parent, and must be a pure function of
     (parent state, index). *)
  let a = Rng.create 42 and b = Rng.create 42 in
  let c1 = Rng.split a 5 and c2 = Rng.split a 5 in
  Alcotest.(check int) "same child stream" (Rng.next c1) (Rng.next c2);
  ignore (Rng.split a 7);
  for _ = 1 to 20 do
    Alcotest.(check int) "parent unchanged by split" (Rng.next a) (Rng.next b)
  done

let test_rng_split_statistical () =
  (* Statistical independence sanity: across 1000 sibling children of one
     campaign seed, first outputs are pairwise distinct, every output bit
     is roughly balanced, and children do not correlate with the parent's
     own output stream. *)
  let parent = Rng.create 1 in
  let n = 1000 in
  let firsts = Array.init n (fun i -> Rng.next (Rng.split parent i)) in
  let tbl = Hashtbl.create n in
  Array.iter (fun x -> Hashtbl.replace tbl x ()) firsts;
  Alcotest.(check int) "children pairwise distinct" n (Hashtbl.length tbl);
  for bit = 0 to 61 do
    let ones = Array.fold_left (fun acc x -> acc + ((x lsr bit) land 1)) 0 firsts in
    Alcotest.(check bool)
      (Printf.sprintf "bit %d balanced" bit)
      true
      (ones > n * 35 / 100 && ones < n * 65 / 100)
  done;
  let p = Rng.create 1 in
  let parent_outs = Array.init n (fun _ -> Rng.next p) in
  let coincide = ref 0 in
  Array.iteri (fun i x -> if x = parent_outs.(i) then incr coincide) firsts;
  Alcotest.(check int) "children decorrelated from parent stream" 0 !coincide

let test_vec_push_pop () =
  let v = Vec.create () in
  for i = 0 to 99 do
    Vec.push v i
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get" 57 (Vec.get v 57);
  Vec.set v 57 1000;
  Alcotest.(check int) "set" 1000 (Vec.get v 57);
  Alcotest.(check (option int)) "pop" (Some 99) (Vec.pop v);
  Alcotest.(check int) "after pop" 99 (Vec.length v)

let test_vec_bounds () =
  let v = Vec.of_list [ 1; 2; 3 ] in
  Alcotest.check_raises "oob get" (Invalid_argument "Vec: index out of bounds")
    (fun () -> ignore (Vec.get v 3))

let test_vec_roundtrip =
  QCheck.Test.make ~name:"vec of_list/to_list roundtrip" ~count:200
    QCheck.(list int)
    (fun xs -> Vec.to_list (Vec.of_list xs) = xs)

let test_stat_mean_geomean () =
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Stat.mean [ 1.; 2.; 3.; 4. ]);
  Alcotest.(check (float 1e-9)) "geomean of equal" 3. (Stat.geomean [ 3.; 3.; 3. ]);
  Alcotest.(check (float 1e-9)) "empty mean" 0. (Stat.mean []);
  Alcotest.(check (float 1e-6)) "geomean 2,8" 4. (Stat.geomean [ 2.; 8. ])

let test_stat_normalize () =
  let n = Stat.normalize [ 1.; 3. ] in
  Alcotest.(check (float 1e-9)) "sums to 1" 1. (Stat.sum n)

let test_table_render () =
  let s = Table.render ~header:[ "a"; "bb" ] [ [ "xxx"; "1" ]; [ "y"; "22" ] ] in
  let lines = String.split_on_char '\n' s in
  Alcotest.(check int) "4 lines" 4 (List.length lines);
  match lines with
  | first :: rest ->
    List.iter
      (fun l -> Alcotest.(check int) "width" (String.length first) (String.length l))
      rest
  | [] -> Alcotest.fail "no output"

(* A graph over [n] nodes with the given edges, parallel ones included. *)
let graph = Digraph.of_edges

let test_digraph_scc () =
  (* 0 -> 1 -> 2 -> 0 forms one SCC; 3 alone; 2 -> 3. *)
  let comps = Digraph.sccs (graph 4 [ (0, 1); (1, 2); (2, 0); (2, 3) ]) in
  Alcotest.(check int) "two components" 2 (Array.length comps);
  let sizes = Array.to_list comps |> List.map List.length |> List.sort compare in
  Alcotest.(check (list int)) "sizes" [ 1; 3 ] sizes

let test_digraph_condense_acyclic () =
  let dag, idx = Digraph.condense (graph 4 [ (0, 1); (1, 2); (2, 0); (2, 3) ]) in
  Alcotest.(check bool) "condensation acyclic" true (Digraph.topo_sort dag <> None);
  Alcotest.(check bool) "cycle nodes share component" true
    (idx.(0) = idx.(1) && idx.(1) = idx.(2));
  Alcotest.(check bool) "3 in its own component" true (idx.(3) <> idx.(0))

let test_topo_sort () =
  match Digraph.topo_sort (graph 5 [ (0, 2); (1, 2); (2, 3); (3, 4) ]) with
  | None -> Alcotest.fail "expected a topological order"
  | Some order ->
    let pos = List.mapi (fun i v -> (v, i)) order in
    let before a b = List.assoc a pos < List.assoc b pos in
    Alcotest.(check bool) "0 before 2" true (before 0 2);
    Alcotest.(check bool) "2 before 4" true (before 2 4)

let test_topo_cycle () =
  Alcotest.(check bool) "cycle has no topo order" true
    (Digraph.topo_sort (graph 2 [ (0, 1); (1, 0) ]) = None)

let test_topo_prop =
  QCheck.Test.make ~name:"topo_sort respects forward edges" ~count:100
    QCheck.(list (pair (int_bound 19) (int_bound 19)))
    (fun pairs ->
      match Digraph.topo_sort (graph 20 (List.filter (fun (a, b) -> a < b) pairs)) with
      | None -> false
      | Some order ->
        let pos = Array.make 20 0 in
        List.iteri (fun i v -> pos.(v) <- i) order;
        List.for_all (fun (a, b) -> a >= b || pos.(a) < pos.(b)) pairs)

let test_scc_idempotent =
  QCheck.Test.make ~name:"scc stable under duplicate edges" ~count:100
    QCheck.(list (pair (int_bound 9) (int_bound 9)))
    (fun pairs ->
      Digraph.sccs (graph 10 pairs)
      = Digraph.sccs (graph 10 (List.concat_map (fun e -> [ e; e ]) pairs)))

(* [sccs], [condense] and [topo_sort] against a naive transitive closure
   over random edge lists, duplicates and self-edges included. *)
let test_scc_closure =
  let n = 8 in
  QCheck.Test.make ~name:"sccs match the transitive closure" ~count:300
    QCheck.(pair (list (pair (int_bound (n - 1)) (int_bound (n - 1)))) int)
    (fun (edges, seed) ->
      (* reach.(u).(v): a path of one edge or more leads from u to v. *)
      let reach = Array.make_matrix n n false in
      List.iter (fun (u, v) -> reach.(u).(v) <- true) edges;
      for k = 0 to n - 1 do
        for u = 0 to n - 1 do
          for v = 0 to n - 1 do
            if reach.(u).(k) && reach.(k).(v) then reach.(u).(v) <- true
          done
        done
      done;
      let comps = Digraph.sccs (graph n edges) in
      let comp = Array.make n (-1) in
      Array.iteri (fun c members -> List.iter (fun v -> comp.(v) <- c) members) comps;
      let partition =
        Array.for_all (fun c -> c >= 0) comp
        && Array.fold_left (fun acc m -> acc + List.length m) 0 comps = n
      in
      let mutual u v = u = v || (reach.(u).(v) && reach.(v).(u)) in
      let classes =
        List.for_all
          (fun u -> List.for_all (fun v -> (comp.(u) = comp.(v)) = mutual u v) (List.init n Fun.id))
          (List.init n Fun.id)
      in
      (* Sinks first: an edge between components runs from the higher
         index to the lower. *)
      let sinks_first = List.for_all (fun (u, v) -> comp.(u) >= comp.(v)) edges in
      let shuffled =
        let st = Random.State.make [| seed |] in
        List.map (fun e -> (Random.State.bits st, e)) edges
        |> List.sort compare |> List.map snd
      in
      let order_free =
        List.for_all
          (fun es -> Digraph.sccs (graph n es) = comps)
          [ List.rev edges; shuffled; List.sort compare edges ]
      in
      let cyclic = List.exists (fun u -> reach.(u).(u)) (List.init n Fun.id) in
      let topo = (Digraph.topo_sort (graph n edges) = None) = cyclic in
      let dag, idx = Digraph.condense (graph n edges) in
      let condensed = idx = comp && Digraph.topo_sort dag <> None in
      partition && classes && sinks_first && order_free && topo && condensed)

(* The indexed stream hands out exactly the draws [in_range] would make,
   in any order, and leaves the generator where they would. *)
let test_range_stream_prop =
  QCheck.Test.make ~name:"range_stream is n sequential in_range draws" ~count:300
    QCheck.(quad int (int_bound 200) (int_range (-1000) 1000) (int_bound 5000))
    (fun (seed, n, lo, width) ->
      let hi = lo + width in
      let seq = Rng.create seed and idx = Rng.create seed in
      let draws = List.init n (fun _ -> Rng.in_range seq lo hi) in
      let f = Rng.range_stream idx ~n ~lo ~hi in
      let backwards = List.rev (List.init n (fun k -> f (n - 1 - k))) in
      backwards = draws && Rng.next seq = Rng.next idx)

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "split pure" `Quick test_rng_split_pure;
          Alcotest.test_case "split statistics" `Quick test_rng_split_statistical;
          QCheck_alcotest.to_alcotest test_range_stream_prop;
        ] );
      ( "vec",
        [
          Alcotest.test_case "push/pop" `Quick test_vec_push_pop;
          Alcotest.test_case "bounds" `Quick test_vec_bounds;
          QCheck_alcotest.to_alcotest test_vec_roundtrip;
        ] );
      ( "stat",
        [
          Alcotest.test_case "mean/geomean" `Quick test_stat_mean_geomean;
          Alcotest.test_case "normalize" `Quick test_stat_normalize;
        ] );
      ("table", [ Alcotest.test_case "render" `Quick test_table_render ]);
      ( "digraph",
        [
          Alcotest.test_case "scc" `Quick test_digraph_scc;
          Alcotest.test_case "condense" `Quick test_digraph_condense_acyclic;
          Alcotest.test_case "topo" `Quick test_topo_sort;
          Alcotest.test_case "topo cycle" `Quick test_topo_cycle;
          QCheck_alcotest.to_alcotest test_topo_prop;
          QCheck_alcotest.to_alcotest test_scc_idempotent;
          QCheck_alcotest.to_alcotest test_scc_closure;
        ] );
    ]
