(** Immutable directed graphs over dense integer node ids.

    Shared by the dependence-graph machinery: Tarjan strongly-connected
    components (DSWP's recurrences, the checker's wait-for cycles) and
    topological sort (DSWP's pipeline stage order). Nodes are
    [0 .. n-1]. A graph is built once from its edge list into sorted,
    de-duplicated successor arrays, so every query below depends only on
    the set of edges, never on the order they were listed in. *)

type t

val of_edges : int -> (int * int) list -> t
(** [of_edges n edges] is the graph on [n] nodes with [edges]. Parallel
    edges collapse into one; self-edges are kept. Raises
    [Invalid_argument] on a node id outside [0 .. n-1]. *)

val n_nodes : t -> int

val sccs : t -> int list array
(** Tarjan's algorithm (a recursive depth-first walk, roots tried in
    ascending order, successors in ascending order). Components come in
    the order the walk completes them, sinks first: an edge between two
    components always goes from the higher index to the lower. Each
    component lists its members in the order the walk reached them. *)

val condense : t -> t * int array
(** The condensation DAG, one node per {!sccs} component (same indices),
    plus the node→component map. *)

val topo_sort : t -> int list option
(** [Some order] with every edge going forward in [order], or [None] if the
    graph has a cycle (self-edges count as cycles). *)
