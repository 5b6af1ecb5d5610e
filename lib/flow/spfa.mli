(** Bellman–Ford/SPFA shortest distances over arc lists, used for
    initial potentials, feasibility certificates and negative-cycle
    detection. Distances are integers (arc costs are integers).

    Every entry point accepts a cooperative [?deadline] token
    ({!Rar_util.Deadline}), checked once per queue pop (clock-sampled
    every {!Rar_util.Deadline.stride} checks); expiry raises
    [Deadline.Expired] with phase ["spfa"]. *)

val from_virtual_root :
  ?deadline:Rar_util.Deadline.t ->
  n:int -> arcs:(int * int * int) array -> unit ->
  (int array, string) result
(** Distances [d] with [d.(v) <= d.(u) + cost] for every arc
    [(u, v, cost)], starting every node at distance 0 (a virtual root
    with zero-cost arcs to all nodes). [Error] names a node on a
    negative cycle. All distances are [<= 0]. *)

val from_init :
  ?deadline:Rar_util.Deadline.t ->
  n:int -> arcs:(int * int * int) array -> init:int array -> unit ->
  (int array, string) result
(** Like {!from_virtual_root} but relaxation starts from [init]
    (copied, not mutated) instead of all-zero — the warm-start entry
    point: potentials from a previous run over a subset of [arcs]
    already satisfy those arcs, so only the new arcs trigger work.
    Negative-cycle detection is unaffected by [init] (any finite start
    finds the cycle), so the [Ok]/[Error] outcome matches the cold
    start; the distances themselves may differ and are simply {e some}
    feasible potential assignment. *)

val inf : int
(** The unreachable sentinel, [max_int / 2]. *)
