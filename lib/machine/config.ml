type t = {
  n_cores : int;
  issue_width : int;
  comm_width : int;
  n_btrs : int;
  cache : Voltron_mem.Coherence.config;
  net_capacity : int;
  (* Cycles per mesh hop on the operand network. 1 is the paper's network
     (2 + hops end-to-end in queue mode); 0 models an idealised
     zero-hop-latency network — the rerun configuration that validates the
     causal profiler's "scale network latency" what-if estimates. *)
  net_hop_cost : int;
  max_cycles : int;
  watchdog : int;
  fault : Voltron_fault.Fault.config;
  (* Skip each stalled core until the first cycle its verdict can change,
     and the whole machine when no core is due, crediting the skipped
     cycles in one update (Machine's stall fast-forward). Architecturally
     invisible; off keeps the reference per-cycle path for differential
     testing. *)
  fast_forward : bool;
}

let default ~n_cores =
  {
    n_cores;
    issue_width = 1;
    comm_width = 1;
    n_btrs = 8;
    cache = Voltron_mem.Coherence.default_config;
    net_capacity = 32;
    net_hop_cost = 1;
    max_cycles = 200_000_000;
    watchdog = 100_000;
    fault = Voltron_fault.Fault.disabled;
    fast_forward = true;
  }

(* Select the coherence backend (snoop bus vs home-based directory); every
   other cache parameter is untouched. The CLI's --coherence flag and the
   differential harness's coherence axis both go through here. *)
let with_coherence protocol t =
  { t with cache = { t.cache with Voltron_mem.Coherence.protocol } }

let latency (inst : Voltron_isa.Inst.t) =
  match inst with
  | Alu { op; _ } -> (
    match op with
    | Mul -> 3
    | Div | Rem -> 12
    | Add | Sub | And | Or | Xor | Shl | Shr | Min | Max -> 1)
  | Fpu { op; _ } -> ( match op with Fadd | Fsub | Fmul -> 4 | Fdiv -> 16)
  | Cmp _ | Select _ | Mov _ -> 1
  | Load _ -> 2
  | Store _ -> 1
  | Pbr _ -> 1
  | Br _ -> 1
  | Bcast _ | Put _ | Send _ | Spawn _ -> 1
  | Getb _ | Get _ | Recv _ -> 1
  | Sleep | Mode_switch _ | Tm_begin | Tm_commit | Halt | Nop -> 1

let mesh t = Voltron_net.Mesh.create t.n_cores
