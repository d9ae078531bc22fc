module Rng = Voltron_util.Rng

type kind = Msg_drop | Msg_corrupt | Mem_flip | Tm_abort | Core_stall

type config = {
  fault_seed : int;
  drop_rate : float;
  corrupt_rate : float;
  flip_rate : float;
  tm_abort_rate : float;
  stall_rate : float;
  stall_cycles : int;
  ecc_penalty : int;
  retry_timeout : int;
  backoff_cap : int;
  max_retries : int;
  degrade_threshold : int;
}

let disabled =
  {
    fault_seed = 1;
    drop_rate = 0.;
    corrupt_rate = 0.;
    flip_rate = 0.;
    tm_abort_rate = 0.;
    stall_rate = 0.;
    stall_cycles = 8;
    ecc_penalty = 30;
    retry_timeout = 16;
    backoff_cap = 64;
    max_retries = 8;
    degrade_threshold = 0;
  }

let uniform ?(seed = 1) ?(degrade_threshold = 0) ~rate () =
  {
    disabled with
    fault_seed = seed;
    drop_rate = rate;
    corrupt_rate = rate;
    flip_rate = rate;
    tm_abort_rate = rate;
    stall_rate = rate;
    degrade_threshold;
  }

let enabled c =
  c.drop_rate > 0. || c.corrupt_rate > 0. || c.flip_rate > 0.
  || c.tm_abort_rate > 0. || c.stall_rate > 0.

type counters = {
  mutable injected : int;
  mutable msgs_dropped : int;
  mutable msgs_corrupted : int;
  mutable spurious_aborts : int;
  mutable stall_faults : int;
  mutable mem_flips : int;
}

type t = { cfg : config; rng : Rng.t; tally : counters }

let create cfg =
  {
    cfg;
    rng = Rng.create cfg.fault_seed;
    tally =
      {
        injected = 0;
        msgs_dropped = 0;
        msgs_corrupted = 0;
        spurious_aborts = 0;
        stall_faults = 0;
        mem_flips = 0;
      };
  }

let config t = t.cfg
let counters t = t.tally

let exceeded t =
  t.cfg.degrade_threshold > 0 && t.tally.injected >= t.cfg.degrade_threshold

(* A zero rate must not advance the RNG: a disabled kind then has no effect
   on the other kinds' fault history. *)
let roll t rate = rate > 0. && Rng.chance t.rng rate

let hit t bump =
  t.tally.injected <- t.tally.injected + 1;
  bump t.tally

let roll_drop t =
  let b = roll t t.cfg.drop_rate in
  if b then hit t (fun c -> c.msgs_dropped <- c.msgs_dropped + 1);
  b

let roll_corrupt t =
  let b = roll t t.cfg.corrupt_rate in
  if b then hit t (fun c -> c.msgs_corrupted <- c.msgs_corrupted + 1);
  b

let roll_flip t =
  let b = roll t t.cfg.flip_rate in
  if b then hit t (fun c -> c.mem_flips <- c.mem_flips + 1);
  b

let roll_tm_abort t =
  let b = roll t t.cfg.tm_abort_rate in
  if b then hit t (fun c -> c.spurious_aborts <- c.spurious_aborts + 1);
  b

let roll_stall t =
  let b = roll t t.cfg.stall_rate in
  if b then hit t (fun c -> c.stall_faults <- c.stall_faults + 1);
  b

let pick_addr t ~size = Rng.int t.rng size
let victim t ~n = Rng.int t.rng n

(* Data words are 62-bit OCaml ints but program values are small; flipping a
   low bit keeps the corrupted word in a plausible range while still being
   a guaranteed single-bit upset. *)
let flip_bit t v = v lxor (1 lsl Rng.int t.rng 24)

let backoff_of cfg ~attempt =
  if attempt <= 0 then invalid_arg "Fault.backoff: attempt is 1-based";
  let exp = min (attempt - 1) 20 in
  min (cfg.retry_timeout * (1 lsl exp)) (cfg.retry_timeout * cfg.backoff_cap)

let backoff t ~attempt = backoff_of t.cfg ~attempt

type level = Full | Decoupled_only | Serial_core0

let level_name = function
  | Full -> "full"
  | Decoupled_only -> "decoupled-only"
  | Serial_core0 -> "serial-core0"

let degrade = function
  | Full -> Some Decoupled_only
  | Decoupled_only -> Some Serial_core0
  | Serial_core0 -> None
