(* Domain pool for flat sweeps: per batch, the caller and up to [jobs - 1]
   freshly spawned helper domains claim cell indices from one atomic
   cursor until the batch is exhausted. See DESIGN.md §15. *)

let default_jobs () =
  match Sys.getenv_opt "VOLTRON_JOBS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n > 0 -> n
    | Some _ | None -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

(* OCaml caps live domains (128 in the stock runtime); stay well below
   it and leave room for the caller and the rest of the host program. *)
let max_helpers = 112

(* Set while this domain takes part in a batch: a nested call runs
   serially instead of spawning domains of its own. *)
let in_batch : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let serial_map ?emit f xs =
  Array.mapi
    (fun i x ->
      let v = f x in
      (match emit with Some emit -> emit i v | None -> ());
      v)
    xs

let parallel ?jobs ?emit f xs =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  let n = Array.length xs in
  if jobs <= 1 || n <= 1 || Domain.DLS.get in_batch then serial_map ?emit f xs
  else begin
    let cursor = Atomic.make 0 in
    let failed = Atomic.make None in
    let fail e =
      let bt = Printexc.get_raw_backtrace () in
      ignore (Atomic.compare_and_set failed None (Some (e, bt)))
    in
    let results = Array.make n None in
    let emit_lock = Mutex.create () in
    let frontier = ref 0 in
    (* Emit every contiguous completed cell past the frontier. A cell's
       domain writes its slot before taking the lock, so a slot this scan
       misses is emitted by that domain's own call. An exception from
       [emit] fails the batch like a failing cell. *)
    let advance emit =
      let rec go () =
        if !frontier < n && Atomic.get failed = None then
          match results.(!frontier) with
          | Some v ->
            emit !frontier v;
            incr frontier;
            go ()
          | None -> ()
      in
      Mutex.protect emit_lock (fun () -> try go () with e -> fail e)
    in
    let rec work () =
      let i = Atomic.fetch_and_add cursor 1 in
      if i < n && Atomic.get failed = None then begin
        (match f xs.(i) with
        | v ->
          results.(i) <- Some v;
          Option.iter advance emit
        | exception e -> fail e);
        work ()
      end
    in
    let take_part () =
      Domain.DLS.set in_batch true;
      work ();
      Domain.DLS.set in_batch false
    in
    let helpers =
      List.init (min max_helpers (min (jobs - 1) (n - 1))) (fun _ ->
          Domain.spawn take_part)
    in
    take_part ();
    List.iter Domain.join helpers;
    match Atomic.get failed with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> Array.map Option.get results
  end

let parallel_map ?jobs f xs = parallel ?jobs f xs
let parallel_map_emit ?jobs ~emit f xs = parallel ?jobs ~emit f xs
