(** A complete Voltron executable: one code image per core plus the initial
    data-memory contents.

    By convention core 0 is the master (paper §3.2): it starts executing at
    address 0 of its image while all other cores start asleep, listening for
    a SPAWN. The machine starts in decoupled mode. *)

type t = {
  images : Image.t array;  (** indexed by core id *)
  mem_size : int;  (** data memory size in words *)
  mem_init : int array;
      (** initial contents of the first words of data memory; the rest
          starts at 0 *)
}

val n_cores : t -> int

val make : images:Image.t array -> mem_size:int -> mem_init:int array -> t
(** Validates that [mem_init] fits in [mem_size] words. *)

val pp : Format.formatter -> t -> unit
(** Full disassembly of all cores. *)
