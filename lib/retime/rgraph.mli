(** Retiming graph / LP construction (paper §IV).

    Builds the difference-constraint LP of Eq. 10 from a {!Stage.t}:

    - variables: the host, every comb node, a mirror (fanout-sharing)
      vertex per multi-fanout node [Leiserson–Saxe], and — in
      resilient-aware mode — a pseudo vertex [P(t)] per target master;
    - E1 constraints [r(u) - r(v) <= w(e)] with breadths [beta = 1/k]
      entering the objective; host edges to the sources carry the
      initial slave latches ([w = 1]);
    - region bounds ([V_m]: r = -1, [V_n]: r = 0, [V_r]: -1 <= r <= 0)
      expressed as host arcs;
    - E2 constraints [r(g) <= r(P(t))] for [g in g(t)] plus the [-c]
      objective reward on [P(t)] (Eq. 10's EDL term);
    - {e no-latch} constraints: [r(v) - r(u) <= 0] once per distinct
      edge with an illegal ({!Stage.illegal_pins}, per-edge Constraint
      7) or forbidden pin, in fanin CSR order (heads ascending, each
      edge at its driver's first such pin), then [1 + r(u) - r(h) <= 0]
      once per source with a forbidden out-pin, in source order.

    The LP solution is decoded back into physical slave placements with
    {!placements_of}. *)

module Transform = Rar_netlist.Transform
module Difflp = Rar_flow.Difflp

type t

val build :
  ?edl_overhead:float ->
  ?forbidden_pins:bool array ->
  ?bias_early:bool ->
  Stage.t ->
  t
(** [edl_overhead = Some c] enables the resilient-aware (G-RAR)
    objective; omitting it gives plain min-latch retiming (the base /
    virtual-library engine). [forbidden_pins] marks, per fanin pin
    position ({!Rar_netlist.Netlist.Compact}), the edges that must
    hold no slave after retiming (the virtual-library engine's typed
    setup constraints); a marked out-pin of a source also forbids the
    source's initial host-edge slave. [Invalid_argument] unless it has
    one entry per pin.

    [bias_early] (default false) switches the objective to the
    commercial-baseline model: slave movement is minimised first (a
    commercial retimer moves latches no further than the timing
    constraints force — visible in the paper's Table VI, where base
    slave counts grow relative to the flop count while G-RAR's
    shrink), with the latch count as tie-break. The base and
    virtual-library engines use this; G-RAR optimises the paper's
    global count + EDL objective. *)

val lp : t -> Difflp.t
val p_vars : t -> (int * int) list
(** [(sink, var)] pairs for the resilient pseudo vertices, in sink
    order. Target sinks with identical cut sets share one canonical
    variable (the endpoint-domination rule: a subsumed sink adds no
    new constraint, and the shared [P] takes the same optimal value
    each private copy would), so the same [var] may appear for several
    sinks; per-sink reads like [r.(var) = -1] are unaffected. *)

val modelled_latch_count : t -> int array -> float
(** The Leiserson–Saxe shared latch count of a solution,
    [sum beta * (w + r(head) - r(tail))] over the graph edges —
    independent of any tie-break terms in the LP objective. *)

val solve :
  ?deadline:Rar_util.Deadline.t ->
  ?on_fallback:(Difflp.fallback_event -> unit) ->
  ?engine:Difflp.engine ->
  ?cache:Difflp.cache -> t -> (int array, Error.t) result
(** Solve and return the full variable assignment (normalised to
    [r(host) = 0]). [?deadline] and [?on_fallback] are passed to
    {!Difflp.solve}: deadline expiry raises [Rar_util.Deadline.Expired]
    (converted to {!Error.Timeout} at the engine boundary), and a
    successful alternate-solver retry is reported via [?on_fallback].
    [?cache] is the ECO solve cache ({!Difflp.cache}): identical LP
    instances replay their stored solution without touching a solver. *)

val placements_of : t -> int array -> Transform.placement list
(** Decode a solution into physical slave placements
    ({!Transform.slave_after}), in node order: a source with [r = 0]
    keeps its initial slave; any node with [r = -1] grows one shared
    slave covering exactly the fanout pins whose head has [r = 0].
    Runs under an [rgraph/decode] trace span. *)

val check_legal :
  t -> Transform.placement list -> (unit, Error.t) result
(** Verify the single-latch-per-path invariant on the placement's
    {!Transform.pin_index}: every source-to-sink path crosses exactly
    one slave. A placement the index rejects is [Illegal_placement]
    too. Runs under an [rgraph/legal] trace span. *)

(** {2 On a stage}

    Decoding and the legality check read only the stage's comb netlist,
    so a solution can be decoded on any stage with the same graph as
    the one its LP was built from — a patched stage with the same
    {!Stage.lp_generation}, say — without the LP. [placements_of g] and
    [check_legal g] are these on [g]'s stage. *)

val placements_on : Stage.t -> int array -> Transform.placement list
val check_legal_on :
  Stage.t -> Transform.placement list -> (unit, Error.t) result
