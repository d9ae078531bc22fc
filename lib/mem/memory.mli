(** Flat word-addressed data memory.

    The simulator separates *function* from *timing*: architectural data
    always lives here (so every mode of execution can be checked against the
    reference interpreter's memory image), while the cache hierarchy in
    {!Coherence} models only tags, states and latencies.

    With an {!Voltron_fault.Ecc} model attached, words carry a (modelled)
    SEC code: {!corrupt} flips a stored bit, {!read} detects and corrects
    corrupted words on demand, {!write} masks a pending flip, and {!scrub}
    corrects any leftovers — so a faulty run's final image equals the
    fault-free one. Without an attached model, {!corrupt} is a no-op and
    the fast path is unchanged. *)

type t

val create : int -> t
(** [create n] is an [n]-word memory initialised to zero. *)

val size : t -> int
val read : t -> int -> int
val write : t -> int -> int -> unit
(** Out-of-bounds accesses raise [Invalid_argument] — the simulator treats
    them as a (simulated) program crash. *)

val peek : t -> int -> int
(** Architectural value of a word with {e no} side effect: what {!read}
    would return, but without consuming a pending ECC correction, bumping
    counters or charging latency. The runtime sanitizer's view of memory. *)

val test_tamper : t -> int -> int -> unit
(** [test_tamper t addr v] overwrites the stored word {e without} noting
    anything in the ECC model — a corruption past the code's detection
    capability (multi-bit upset). Invisible to the recovery machinery by
    construction; only the sanitizer's shadow memory can catch it.
    Test-only: real injection goes through {!corrupt}. *)

val attach_ecc : t -> Voltron_fault.Ecc.t -> unit
(** Enable the ECC model; required before {!corrupt} has any effect. *)

val corrupt : t -> int -> flip:(int -> int) -> unit
(** Fault-injection entry point: apply [flip] to the stored word,
    remembering the golden value in the attached ECC model. *)

val scrub : t -> unit
(** Correct every still-corrupted word (end-of-run ECC scrub). *)

val load_init : t -> int array -> unit
(** [load_init t image] copies [image] over the first words of [t]: how a
    fresh memory takes its initial contents, before any fault. *)

val snapshot : t -> int array
val restore : t -> int array -> unit
val equal : t -> t -> bool

val checksum : t -> int
(** Order-sensitive FNV-style hash of the full contents; the oracle value
    compared across execution strategies. *)

val checksum_prefix : t -> int -> int
(** Hash of the first [n] words only — used to compare runs whose memories
    differ in compiler-scratch headroom beyond the program's arrays. *)
