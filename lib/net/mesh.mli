(** Two-dimensional mesh topology (paper Fig. 4(a)).

    Cores are numbered row-major: a 4-core machine is the 2x2 grid
    {v
      0 1
      2 3
    v}
    and a 2-core machine is the 1x2 grid [0 1]. The topology and its
    latencies are exposed to the compiler, which plans multi-hop PUT/GET
    chains and estimates SEND/RECV latency from [hops]. *)

type t

val create : int -> t
(** [create n] is a mesh of [n] cores, [n >= 1]. Chooses the squarest
    row-major grid that holds [n] cores. *)

val n_cores : t -> int
val columns : t -> int
val rows : t -> int
val coords : t -> int -> int * int
(** [coords t c] is [(x, y)] with [x] the column, [y] the row. *)

val neighbour : t -> int -> Voltron_isa.Inst.dir -> int option
val hops : t -> int -> int -> int
(** Manhattan distance. *)

val max_hops : t -> int
(** Network diameter. *)

val route : t -> src:int -> dst:int -> Voltron_isa.Inst.dir list
(** XY (dimension-ordered) route; empty when [src = dst]. *)

val path_cores : t -> src:int -> dst:int -> int list
(** The cores visited by [route], starting with [src] and ending with
    [dst]. *)
