(** Uncapacitated min-cost transshipment problems.

    The dual form every retiming LP in this project reduces to
    (paper Eq. 14): minimise [sum cost(a) * x(a)] over arc flows
    [x >= 0] subject to, at every node [v],
    [inflow(v) - outflow(v) = demand(v)].

    Arc costs are integers (they are latch counts / bound offsets), so
    optimal node potentials — the retiming values [r(v)] — are integral.
    Demands are floats (they carry the fractional fanout-sharing
    breadths beta = 1/k). *)

type arc = { src : int; dst : int; cost : int }

type t

val create : n:int -> t
(** [n] nodes, ids [0 .. n-1], zero demands, no arcs. *)

val node_count : t -> int
val arc_count : t -> int

val add_arc : t -> src:int -> dst:int -> cost:int -> int
(** Returns the arc id. Self-loops are rejected. *)

val iter_arcs : t -> (int -> arc -> unit) -> unit

val add_demand : t -> int -> float -> unit
(** Accumulates into the node's demand. *)

val demand : t -> int -> float

val total_demand : t -> float
(** Must be ~0 for the problem to be feasible; solvers check this. *)
