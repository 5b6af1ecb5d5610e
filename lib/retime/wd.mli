(** Sparse, pool-parallel all-pairs W/D kernel for Leiserson–Saxe
    retiming (Eq. 1–2).

    Replaces the dense lexicographic Floyd–Warshall: per source, a
    bucket-queue (dial) Dijkstra over the deduplicated sparse edge set
    (register count [w] as the small-integer length) gives [W(u, .)],
    and a longest-delay relaxation over the acyclic tight-edge subgraph
    gives [D(u, .)]. Sources are evaluated Johnson-style in parallel on
    {!Rar_util.Pool}; the result is deterministic for every pool size
    and queue discipline.

    [Classic.graph] memoises one {!t} per graph value and threads it
    through [period_of]/[feasible]/[min_period]/[retime], so a whole
    min-period search pays for the all-pairs computation exactly
    once. *)

type t

val build : n:int -> delays:float array -> edges:(int * int * int) list -> t
(** [build ~n ~delays ~edges] with [edges] = [(u, v, w)] triples
    (parallel edges are deduplicated to the minimum [w]; self-loops
    ignored). Raises [Invalid_argument] on a zero-weight cycle, on
    vertices out of range or negative weights, and when [n] or any
    weight reaches [2^21] (the per-edge int-packing bound — far above
    the million-gate target, and weights are register counts bounded by
    the node count). *)

val big : int
(** Unreachable sentinel in the dense view, [max_int / 4] (the same
    value the dense kernel used). *)

val to_dense : t -> int array array * float array array
(** Full [(W, D)] matrices: [W = big] / [D = neg_infinity] for
    unreachable pairs, diagonal [W = 0] / [D = delay]. *)

val max_zero_weight_delay : t -> float
(** Worst [D(u,v)] over the pairs with [W(u,v) = 0] — the current
    clock period. At least [0.]. *)

val distinct_d_values : t -> float array
(** All distinct finite [D] values (diagonal included), ascending: the
    candidate set of {!Classic.min_period}'s binary search. *)

val iter_over_period : t -> period:float -> (int -> int -> int -> unit) -> unit
(** [iter_over_period t ~period f] calls [f u v (W(u,v))] for every
    off-diagonal reachable pair with [D(u,v) > period + 1e-9], sources
    ascending and destinations ascending within a source — the exact
    emission order of the dense double scan. Pairs are found by
    scanning the per-source reachable rows (already destination-sorted),
    so the cost is proportional to total reachability, not [n^2]. *)

val max_zero_weight_delay_edges :
  n:int -> delays:float array -> edges:(int * int * int) list -> float
(** {!max_zero_weight_delay} computed straight from the edge list in
    O(V + E) — a longest endpoint-delay path DP over the zero-weight
    subgraph — without building the all-pairs matrices. Bitwise equal
    to building {!t} and reading {!max_zero_weight_delay}: both reduce
    to a maximum over the same set of left-accumulated path-delay sums.
    Raises like {!build}. *)
