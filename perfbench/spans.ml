(* In-memory span recorder for the traced run. A span is one call into a
   layer: its name, the op it served, its parent span and its host-time
   interval. Spans nest through [with_span]; nothing is written until the
   run ends. *)

type span = {
  name : string;
  op : int;  (** index of the op the span served, -1 outside ops *)
  parent : int;  (** index of the enclosing span, -1 for a root *)
  start : float;
  mutable stop : float;
}

type t = {
  mutable spans : span array;
  mutable n : int;
  mutable current : int;
  mutable op : int;
}

let create () = { spans = [||]; n = 0; current = -1; op = -1 }
let set_op t op = t.op <- op
let spans t = Array.sub t.spans 0 t.n

let push t s =
  if t.n = Array.length t.spans then begin
    let grown = Array.make (max 256 (2 * t.n)) s in
    Array.blit t.spans 0 grown 0 t.n;
    t.spans <- grown
  end;
  t.spans.(t.n) <- s;
  t.n <- t.n + 1;
  t.n - 1

let with_span t name f =
  let parent = t.current in
  let i = push t { name; op = t.op; parent; start = Unix.gettimeofday (); stop = nan } in
  t.current <- i;
  Fun.protect
    ~finally:(fun () ->
      t.spans.(i).stop <- Unix.gettimeofday ();
      t.current <- parent)
    f

let duration s = s.stop -. s.start

(* Self time: the span's duration minus the part of its interval that its
   children cover. Children are clipped to the parent and their union is
   taken, so overlapping children are not subtracted twice. *)
let self_times spans =
  let children = Array.make (Array.length spans) [] in
  Array.iteri
    (fun i s -> if s.parent >= 0 then children.(s.parent) <- i :: children.(s.parent))
    spans;
  Array.mapi
    (fun i s ->
      let intervals =
        List.sort compare
          (List.map
             (fun c -> (max s.start spans.(c).start, min s.stop spans.(c).stop))
             children.(i))
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = max a reach in
            if b > a then (acc +. (b -. a), b) else (acc, reach))
          (0., neg_infinity) intervals
      in
      duration s -. covered)
    spans

(* Self time and call count per span name. *)
let by_name spans =
  let self = self_times spans in
  let tbl = Hashtbl.create 16 in
  Array.iteri
    (fun i s ->
      let t, c = Option.value (Hashtbl.find_opt tbl s.name) ~default:(0., 0) in
      Hashtbl.replace tbl s.name (t +. self.(i), c + 1))
    spans;
  tbl

let write_tsv path spans =
  let oc = open_out path in
  output_string oc "index\tname\top\tparent\tstart_s\tstop_s\n";
  let t0 = if Array.length spans = 0 then 0. else spans.(0).start in
  Array.iteri
    (fun i s ->
      Printf.fprintf oc "%d\t%s\t%d\t%d\t%.9f\t%.9f\n" i s.name s.op s.parent
        (s.start -. t0) (s.stop -. t0))
    spans;
  close_out oc
