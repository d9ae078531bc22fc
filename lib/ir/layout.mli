(** Data-memory layout for a program's arrays.

    Arrays are placed back to back from address 0, each padded to a cache
    line so that distinct arrays never share a line (keeps the paper's
    "distinct data structures don't alias" property true at line
    granularity, avoiding false sharing the compiler didn't create). The
    compiler may reserve extra scratch words after the arrays (accumulator
    expansion, join flags). *)

type t

val compute : ?line_words:int -> Hir.program -> t
val base : t -> Hir.arr -> int
val array_size : t -> Hir.arr -> int
val scratch_alloc : t -> int -> int
(** [scratch_alloc t n] reserves [n] fresh words and returns their base. *)

val copy : t -> t
(** The same arrays; scratch reserved in the copy does not reach [t]. *)

val mem_size : t -> int
(** Total footprint including scratch (call after all allocations). *)

val mem_init : t -> Hir.program -> int array
(** Initial memory contents from the arrays' initialisers: the words from
    address 0 to the end of the last initialised array (every later word
    starts at 0). *)
