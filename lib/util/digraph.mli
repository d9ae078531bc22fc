(** Directed graphs over dense integer node ids.

    Shared by the dependence-graph machinery: Tarjan strongly-connected
    components (for DSWP), topological sort (for pipeline stage ordering and
    list scheduling), and reachability. Nodes are [0 .. n-1]. *)

type t

val create : int -> t
(** [create n] is a graph with [n] nodes and no edges. *)

val n_nodes : t -> int
val add_edge : t -> int -> int -> unit
(** Idempotent: parallel edges are collapsed. Self-edges are kept. *)

val succs : t -> int -> int list
val preds : t -> int -> int list

val sccs : t -> int list array
(** Tarjan's algorithm. Components are returned in reverse topological
    order of the condensation (i.e. a component appears before the
    components it depends on are listed after it); each component lists its
    member nodes. *)

val scc_index : t -> int array
(** [scc_index g].(v) is the index of [v]'s component in [sccs g]. *)

val condense : t -> t * int array
(** Condensation DAG of the SCCs plus the node→component map. *)

val topo_sort : t -> int list option
(** [Some order] with every edge going forward in [order], or [None] if the
    graph has a cycle (self-edges count as cycles). *)

val is_acyclic : t -> bool
