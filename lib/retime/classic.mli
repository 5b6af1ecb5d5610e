(** Classic Leiserson–Saxe retiming of flip-flop circuits (the §II-C
    background the paper builds on).

    Works on an ordinary flop-based netlist: registers may move
    anywhere ([r(v)] is an unbounded integer — this is also the one
    consumer of the flow engines outside the binary window, so the
    closure shortcut does not apply).

    - {!min_period} — binary search over the distinct [D] values, each
      feasibility check a Bellman–Ford run over Eq. 3's constraints,
      warm-started from the previous feasible probe's potentials;
    - {!retime} — min-area retiming at a chosen period (Eq. 3 with the
      fanout-sharing breadths), solved by min-cost flow, realised back
      into a netlist with shared register chains;
    - {!retime_feas} — the matrix-free FEAS route for million-gate
      graphs, where the Theta(n^2) all-pairs W/D tables of the exact
      route cannot even be stored. *)

module Netlist = Rar_netlist.Netlist
module Liberty = Rar_liberty.Liberty
module Difflp = Rar_flow.Difflp

type graph

val of_netlist : ?host_registers:int -> lib:Liberty.t -> Netlist.t -> graph
(** Gate delays come from the library (worst pin, current loads);
    primary I/O is attached to the host vertex, whose delay is 0.

    Leiserson–Saxe requires every directed cycle to carry a register;
    a purely combinational input-to-output path closes a zero-weight
    cycle through the host and is rejected with [Invalid_argument].
    Setting [host_registers] (default 0) declares that the environment
    re-registers every output that many times (extra weight on the
    output-to-host edges), which restores well-formedness for such
    circuits at the cost of borrowing those environment registers.
    Also raises [Invalid_argument] if the netlist contains latches
    rather than flops. *)

val node_count : graph -> int

val wd : graph -> Wd.t
(** The memoised sparse W/D kernel of this graph (computed on first
    use; every later query reuses it). *)

val period_of : graph -> float
(** Current clock period (longest register-free combinational path). *)

val min_period : ?deadline:Rar_util.Deadline.t -> graph -> float
(** Smallest period achievable by retiming. Probes after the first
    feasible one warm-start from its SPFA potentials
    ({!Rar_flow.Spfa.from_init}, counted in the [spfa_warm_starts]
    metric); the feasibility verdict is init-independent. [?deadline]
    bounds the feasibility probes (phase ["spfa"]). *)

val feasible : ?deadline:Rar_util.Deadline.t -> graph -> period:float -> bool

val constraint_arcs : graph -> period:float -> (int * int * int) array
(** The difference-constraint arcs of Eq. 3 at [period]: one
    [(src, dst, w)] arc per fan-out connection plus one
    [(u, v, W(u,v) - 1)] arc per reachable pair with
    [D(u,v) > period + 1e-9] (generated lazily from the cached sparse
    kernel). Feasible iff retiming can meet [period]. *)

type outcome = {
  r : int array;            (** per graph vertex *)
  registers_before : int;
  registers_after : int;    (** shared count after retiming *)
  achieved_period : float;
    (** re-measured on the rebuilt netlist; may drift slightly above
        the requested period because moving registers perturbs fanout
        loads (delays were frozen when the graph was built) — the
        effect the paper's size-only incremental compile cleans up *)
  retimed : Netlist.t;
}

val retime :
  ?deadline:Rar_util.Deadline.t ->
  ?on_fallback:(Difflp.fallback_event -> unit) ->
  ?engine:Difflp.engine -> graph -> period:float -> (outcome, Error.t) result
(** Min-area retiming meeting [period]. [engine] defaults to the
    network simplex; the closure engine is rejected (solutions are not
    binary). [?deadline] and [?on_fallback] behave as in
    {!Rgraph.solve}. *)

val feas :
  ?deadline:Rar_util.Deadline.t ->
  ?init:int array ->
  graph -> period:float -> (int array * float) option
(** Leiserson–Saxe Algorithm FEAS: a legal retiming meeting [period],
    or [None] if none was reached. Each sweep is an O(V + E)
    clock-period pass over the retimed zero-weight subgraph followed
    by [r(v) <- r(v) + 1] on every over-period vertex, for at most the
    |V| - 1 theory bound of sweeps; but a probe that fails to improve
    its worst arrival for 100 consecutive sweeps is abandoned early,
    so [None] is a heuristic — not proven — infeasibility verdict on
    graphs of more than 101 vertices. Every [Some] is genuinely
    feasible. [init] warm-starts from a known-legal retiming
    (non-negative retimed weights; raises [Invalid_argument] on a
    length mismatch) instead of r = 0.
    Returns [(r, achieved)] with [r] normalised to [r(host) = 0] and
    [achieved] the clock period of the retimed graph (can undershoot
    [period]). Needs no W/D matrices — O(V) memory beyond the graph.
    [?deadline] phase is ["feas"]. *)

val min_period_feas :
  ?deadline:Rar_util.Deadline.t -> graph -> int array * float
(** Bisect the period between the heaviest single vertex and the
    current period with {!feas} (24 halvings — enough to exhaust
    double precision on any real delay range) and return the best
    retiming found with its achieved period. Probes
    warm-start from the best feasible retiming so far, so successive
    successes pay only for their extra register moves. Because the
    per-probe infeasibility exit is heuristic (see {!feas}), the
    result can sit above the true optimum; it is always a legal
    retiming no worse than the input. *)

val retime_feas :
  ?deadline:Rar_util.Deadline.t -> graph -> (outcome, Error.t) result
(** {!min_period_feas} followed by netlist realisation: the scalable end-to-end
    min-period path (no min-area objective — FEAS moves registers
    wherever feasibility demands). Deadline expiry surfaces as
    [Error.Timeout] with phase ["feas"]. *)
