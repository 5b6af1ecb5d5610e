(** Dinic max-flow over float capacities, the engine behind
    {!Closure}.

    Storage contract: edges live in flat arrays. Forward edge [i] gets
    edge id [2i] and its residual twin [2i + 1], so [e lxor 1] is the
    reverse of [e]. {!run} freezes them into a CSR adjacency (row
    starts plus edge ids grouped by tail node) with unboxed
    [float array] residuals; the BFS uses an array queue and the
    blocking-flow DFS is iterative, so a long path never grows the
    OCaml stack. Residuals at or below [1e-9] count as saturated. *)

type t

val create : ?edges:int -> n:int -> unit -> t
(** A network on nodes [0 .. n - 1]. [edges] (default 16) sizes the
    edge storage up front; it grows by doubling past that. *)

val add_edge : t -> src:int -> dst:int -> cap:float -> unit
(** Directed edge; parallel edges add their capacities. Not allowed
    after {!run}. *)

val run :
  ?deadline:Rar_util.Deadline.t -> t -> source:int -> sink:int -> float
(** Max-flow value. May be called once per instance. Each phase's BFS
    stops once the sink is labelled, and its blocking flow enters a
    node at the sink's level only at the sink: no node at or past that
    level lies on a shortest augmenting path. [?deadline] is
    sampled (strided, see {!Rar_util.Deadline.check}) once per BFS pop
    and once per DFS step; expiry raises
    [Rar_util.Deadline.Expired { phase = "maxflow"; _ }]. Publishes the
    [maxflow_phases] and [maxflow_augmentations] counters. *)

val min_cut_source_side : t -> source:int -> bool array
(** After {!run}: nodes reachable from [source] in the residual
    graph — the unique minimal minimum cut, the same for every maximum
    flow. *)

val certify :
  t -> source:int -> sink:int -> side:bool array -> (unit, string) result
(** After {!run}: check, against the original capacities, that the
    residual state is a feasible flow (capacity bounds, conservation),
    that its value is what {!run} returned, and that the cut [side]
    separates [source] from [sink] with capacity equal to that value —
    which proves both the flow maximum and the cut minimum. *)
