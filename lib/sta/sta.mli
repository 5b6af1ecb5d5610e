(** Static timing analysis over a combinational circuit.

    Operates on the [comb] netlist of a {!Rar_netlist.Transform.comb_circuit}:
    [Input] nodes are master launch points (time = [launch], normally the
    master clock-to-Q), [Output] nodes are capture points. Two delay
    models (paper §VI-B):

    - {b gate-based} — each gate contributes its single worst pin/worst
      transition delay; the model of the original DAC'17 paper [16];
    - {b path-based} — rise/fall arrivals paired through each cell's
      pin-to-pin arcs and unateness, i.e. only "valid combinations of
      rise and fall delays" propagate, mirroring the commercial engine
      used in the journal version.

    Both are expressed over {!Liberty.arc} pairs; the gate-based model
    simply collapses each arc to its max, so downstream code is
    model-agnostic. *)

module Netlist = Rar_netlist.Netlist
module Liberty = Rar_liberty.Liberty
module Transform = Rar_netlist.Transform

type model = Gate_based | Path_based

val model_name : model -> string

type t

val analyse :
  ?launch:float -> ?annot:float array -> Liberty.t -> model -> Netlist.t -> t
(** Forward-propagate arrivals. [launch] (default: the library latch's
    clock-to-Q) is the arrival time at every [Input] node. Loads are
    computed from the netlist's current fanouts and drives. [annot]
    adds a per-node extra delay to every timing arc of the node (ECO
    delay annotations; length must be the node count). Raises
    [Invalid_argument] if the netlist contains sequential nodes. *)

val patch :
  t ->
  net:Netlist.t ->
  ?annot:float array ->
  dirty_arcs:int list ->
  seeds:int list ->
  unit ->
  t * bool array
(** Incremental re-analysis after an ECO edit ({!Transform.Edit}).
    [net] is the edited netlist; it must have the same node count and
    pin layout as the analysed one (the {!Transform.Edit.applied}
    contract). [dirty_arcs] are the nodes whose timing arcs changed
    (their arcs are refilled from the library under [annot]);
    [seeds] are nodes whose fanin identity changed. Arrivals are
    re-propagated forward only from those nodes, stopping where the
    recomputed arrival is bitwise-equal to the cached one, so the
    result equals [analyse ?annot lib mdl net] {e bitwise} at a cost
    proportional to the affected cone. [annot] must agree with the
    analysed state on every node outside [dirty_arcs].

    Returns the patched analysis plus a per-node mask marking every
    node whose arrival or timing arcs (or fanin identity) changed —
    the seed set for downstream cone invalidation. Re-relaxed pins are
    counted in the [sta_incremental_pins] metric. *)

val netlist : t -> Netlist.t
val library : t -> Liberty.t
val model : t -> model
val launch : t -> float

(** {1 Forward times} *)

val arrival_arc : t -> int -> Liberty.arc
(** Arrival at node output: [rise] = latest output-rising transition. *)

val df : t -> int -> float
(** [D^f(v)]: scalar worst arrival at the output of [v] (Eq. 5's
    forward term). For [Output] sink nodes this is the capture-point
    arrival. *)

val arrival_at_sink : t -> int -> float
(** Arrival at an [Output] node's input; equals [df] of the sink (sinks
    are zero-delay). *)

(** {1 Backward delays} *)

type db = { rise : float array; fall : float array }
(** Backward-delay arena: [rise.(v)]/[fall.(v)] is [D^b(v, t)] indexed
    by the transition polarity at [v], [neg_infinity] outside the
    sink's fan-in cone. A plain pair of float arrays (not
    [Liberty.arc array]) so the per-sink backward DP allocates two flat
    arenas and nothing per pin. Treat as read-only. *)

val backward : t -> sink:int -> Liberty.arc array
(** [D^b(v, t)] for every node [v]: worst delay from a transition at
    the {e output} of [v] to the sink [t], excluding [v]'s own delay;
    indexed by the transition polarity at [v]. Nodes outside the fan-in
    cone of [t] hold [neg_infinity] arcs. [backward t ~sink] of the
    sink itself is the zero arc. *)

val backward_packed : t -> sink:int -> db
(** {!backward} in packed form (the arrays {!backward} materialises
    its arcs from). *)

val backward_scalar : t -> sink:int -> float array
(** Max of the {!backward} arcs. *)

val backward_all : t -> float array
(** Per node, [max] over every sink of [D^b(v,t)] — one multi-sink
    pass; used for the [V_m] region test (Constraint 7). The result is
    memoised in [t]; call it once from a single domain before sharing
    [t] read-only across {!Rar_util.Pool} workers (every other
    accessor of [t] is pure). *)

(** {1 Edge propagation} *)

val through : t -> driver:int -> via:int -> Liberty.arc -> Liberty.arc
(** [through t ~driver ~via arc]: arc at the output of gate [via] when
    its pin(s) driven by [driver] switch at [arc]. Worst pin when
    [driver] feeds several pins. [via] may be a sink ([Output]) node,
    in which case the arc passes through unchanged. *)

val latch_out :
  t -> clocking:Clocking.t -> latch:Liberty.seq_cell -> int -> Liberty.arc
(** Output timing of a slave latch placed just after node [u]
    (the inner [max] of Eq. 5): per polarity,
    [max (slave_open + ck_to_q) (arrival_u + d_to_q)]. *)

val arrival_with_slave_after :
  t -> clocking:Clocking.t -> latch:Liberty.seq_cell -> u:int -> v:int ->
  db:db -> float
(** [A(u,v,t)] of Eq. 5: worst arrival at the sink whose backward
    times are [db], through a slave latch on edge [(u,v)]. Allocates a
    few boxed floats and a tuple per call; per-sink classification
    evaluates [A] through {!cone_slave_arrivals} instead. *)

(** {1 Per-sink cone scratch}

    Reusable buffers for the per-sink kernel of
    {!Rar_retime.Stage} classification. A scratch is sized once for a
    netlist (O(n + pins)) and then serves any number of sinks back to
    back: loading a sink costs O(|cone| + cone pins) — nothing is
    cleared or allocated per sink. A scratch is mutable, single-owner
    state: never share one between domains or concurrent calls. *)

type cone

val cone_scratch : t -> cone
(** Fresh scratch for [t]'s netlist; usable with any analysis of a
    netlist with the same node count and pin layout. *)

val load_cone : t -> cone -> sink:int -> unit
(** Load [sink]'s fan-in cone and its backward delays into the scratch,
    replacing the previous sink's. Raises [Invalid_argument] if [sink]
    is not an [Output] node or the scratch was built for a netlist of
    another size. *)

val cone_size : cone -> int
(** Node count of the loaded cone. *)

val cone_nodes : cone -> int array
(** The loaded cone in its first {!cone_size} entries, ordered so every
    node precedes its fanins (the sink first); entries past the cone
    are stale. The buffer is the scratch's own: read-only. *)

val cone_db : cone -> db
(** The loaded sink's backward delays: on cone nodes, bitwise
    [backward_packed t ~sink]; entries of other nodes are stale. The
    arrays are the scratch's own: read-only. *)

(** {1 Slave arcs}

    The sink-independent half of Eq. 5, hoisted out of the per-sink
    kernel: computed once per analysis and clocking, read by every
    sink's {!cone_slave_arrivals}. *)

type slave_arcs
(** Per fanin pin position [p] of a gate or sink [v], driven by [u]:
    the arc at [v]'s output when a slave sits right after [u] —
    {!latch_out} of [u] pushed through the worst of the pins of [v]
    that [u] drives (unchanged into a sink). *)

val slave_arcs :
  t -> clocking:Clocking.t -> latch:Liberty.seq_cell -> slave_arcs
(** One pass over the fanin pins, with the arithmetic of
    {!arrival_with_slave_after}. Read-only once built, so pool workers
    may share it. *)

val slave_delay_bound :
  t -> clocking:Clocking.t -> latch:Liberty.seq_cell -> float option
(** [Some d], [d = max (slave_open + ck_to_q - launch) d_to_q]: a slave
    on any edge makes no sink arrive more than [d] later than its
    {!arrival_at_sink}: [A(u,v,t) <= arrival_at_sink t + d] up to float
    rounding (the two sides sum the same delays in another order). The
    bound needs every arrival to be at least [launch] (then
    [latch_out u <= arrival u + d] per polarity, and the max-plus
    propagation to the sink keeps the shift); [None] when some node
    arrives earlier (a negative library arc, a gate without fanins). *)

val cone_slave_arrivals : t -> cone -> slave_arcs -> float array
(** Evaluate [A(u,v,t)] (Eq. 5) for the loaded sink at every fanin pin
    position [p] of every non-input cone node [v], as
    [max (out_rise p + D^b_rise v) (out_fall p + D^b_fall v)] over the
    hoisted arcs: entry [p] of the returned per-pin array equals
    [arrival_with_slave_after t ~clocking ~latch ~u ~v ~db] bitwise,
    with [arcs = slave_arcs t ~clocking ~latch], [u] the pin's driver
    and [db] the sink's backward delays. Other entries are stale; the
    array is the scratch's own (read-only, overwritten by the next
    call). Allocates nothing. *)

val forward_with_latches :
  t ->
  clocking:Clocking.t ->
  latch:Liberty.seq_cell ->
  latched:(v:int -> pin:int -> bool) ->
  Liberty.arc array
(** Arrival at every node when selected input pins are fed through a
    slave latch: a latched pin sees
    [max (slave_open + ck_to_q) (arrival + d_to_q)] per polarity before
    the cell arc. This is the verification pass run after retiming: it
    yields the true capture arrivals for any slave placement (and the
    arrival of the un-retimed design when all source-driven pins are
    latched). *)

(** {1 Path reports} *)

type path_step = {
  node : int;
  incr : float;       (** delay added by this node's stage *)
  arrival : float;    (** cumulative arrival at the node's output *)
  edge : [ `Rise | `Fall ];
}

val critical_path : t -> sink:int -> path_step list
(** Trace the worst path into [sink] back to its launching source, in
    source-to-sink order — the information a commercial
    [report_timing] prints. The first step is the source (arrival =
    launch), the last the sink. *)

val report_path :
  t -> clocking:Clocking.t -> sink:int -> string
(** Render {!critical_path} as a classic timing report with per-stage
    increments, the period/max-delay lines and the resiliency-window
    verdict for the endpoint. *)
