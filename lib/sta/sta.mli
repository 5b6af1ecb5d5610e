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
    [net] is the edited netlist; it must have the same node count,
    pin layout and cell functions as the analysed one (the
    {!Transform.Edit.applied} contract: edits change drives, fanins and
    annotations only). [dirty_arcs] are the nodes whose timing arcs changed
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
val model : t -> model

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

val backward_all : t -> float array
(** Per node, [max] over every sink of [D^b(v,t)] — one multi-sink
    pass; used for the [V_m] region test (Constraint 7). The result is
    memoised in [t]; call it once from a single domain before sharing
    [t] read-only across {!Rar_util.Pool} workers (every other
    accessor of [t] is pure). *)

val backward_all_db : t -> db
(** The multi-sink pass of {!backward_all} by polarity at each node
    (its result is their max), computed afresh; fills {!backward_all}'s
    memo when empty, under the same single-domain rule. *)

val patch_backward_all :
  t -> prev:t -> db:db -> dirty_arcs:int list -> seeds:int list -> int list
(** [patch_backward_all t ~prev ~db ~dirty_arcs ~seeds], where [t] is
    [fst (patch prev ~dirty_arcs ~seeds ...)] and [db] is
    {!backward_all_db} of [prev]: updates [db] in place to
    {!backward_all_db} of [t], bitwise, recomputing only the dirty
    backward cone — the drivers of [dirty_arcs] nodes, those nodes
    themselves, the drivers of every [seeds] node before and after the
    edit, and transitively the drivers of every node whose times
    moved, stopping where a recomputed time is bitwise-equal to the old
    one, as {!patch}'s forward wave does. [dirty_arcs] must hold every
    gate whose readers changed (the {!Transform.Edit.applied}
    contract). Sets [t]'s {!backward_all} memo and returns the nodes
    whose times moved. [db] must be no one else's: the caller owns
    it. *)

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
    few boxed floats and a tuple per call; batched classification
    evaluates [A] through {!batch_slave_arrivals} instead. *)

(** {1 Lane-batched cone scratch}

    Reusable buffers for the batch kernel of {!Rar_retime.Stage}
    classification: up to {!lanes} sinks at a time, sink [l] of a batch
    in lane [l]. A scratch is sized once for a netlist (O(lanes * n +
    pins)) and then serves any number of batches back to back: loading
    one costs O(lanes * (|union| + union pins)), where the union is
    every node in some loaded sink's fan-in cone — nothing is cleared
    or allocated per batch. A scratch is mutable, single-owner state:
    never share one between domains or concurrent calls. *)

val lanes : int
(** Sinks per batch: 8. *)

type batch = private {
  mutable epoch : int;
  seen : int array;
  order : int array;
      (** [0 .. size-1]: the union in topological order, every node
          after its fanins; later entries are stale *)
  mutable size : int;  (** node count of the union *)
  mutable width : int; (** sinks loaded, in lanes [0 .. width-1] *)
  stack_v : int array;
  stack_p : int array;
  mask : int array;
      (** per union node: bit [l] is set iff the node is in the fan-in
          cone of lane [l]'s sink *)
  dbr : float array;
  dbf : float array;
      (** [dbr.(v * lanes + l)]/[dbf.(v * lanes + l)]: on a union node
          [v], [D^b(v, t)] for lane [l]'s sink [t] by polarity at [v],
          bitwise {!backward_packed}, and [neg_infinity] when [v] is
          outside that sink's cone *)
  a : float array;
      (** written by {!batch_slave_arrivals}: [a.((p - lo) * lanes + l)]
          for fanin pin position [p] of one node whose pins start at
          [lo] *)
}
(** The fields are the scratch's own — read-only outside this module.
    Entries of nodes outside the union and of lanes past [width] are
    stale. Per-batch kernels read them directly: under separate
    compilation every accessor call is a real call. *)

val batch_scratch : t -> batch
(** Fresh scratch for [t]'s netlist; usable with any analysis of a
    netlist with the same node count and pin layout. *)

val load_batch : t -> batch -> int array -> unit
(** [load_batch t b sinks] loads the fan-in cones of [sinks] (1 to
    {!lanes} [Output] nodes, [sinks.(l)] into lane [l]) and their
    backward delays into the scratch, replacing the previous batch's:
    one DFS from every sink over one [seen] stamp, whose postorder is
    the union's order, then one backward pass over it in every lane. Raises [Invalid_argument] if [sinks] is empty or longer
    than {!lanes}, holds a node that is not an [Output], or the scratch
    was built for a netlist of another size. *)

val union_size : t -> batch -> int array -> int
(** The node count of the union {!load_batch} loads, by its DFS alone:
    the scratch is left without backward delays. *)

(** {1 Slave arcs}

    The sink-independent half of Eq. 5, hoisted out of the batch
    kernel: computed once per analysis and clocking, read by every
    batch's {!batch_slave_arrivals}. *)

type slave_arcs = private { out_rise : float array; out_fall : float array }
(** Per fanin pin position [p] of a gate or sink [v], driven by [u]:
    the arc at [v]'s output when a slave sits right after [u] —
    {!latch_out} of [u] pushed through the worst of the pins of [v]
    that [u] drives (unchanged into a sink), by output polarity.
    Read-only outside this module. *)

val slave_arcs :
  t -> clocking:Clocking.t -> latch:Liberty.seq_cell -> slave_arcs
(** One pass over the fanin pins, with the arithmetic of
    {!arrival_with_slave_after}. Read-only once built, so pool workers
    may share it. *)

val patch_slave_arcs :
  t -> slave_arcs -> clocking:Clocking.t -> latch:Liberty.seq_cell ->
  changed:bool array -> unit
(** [patch_slave_arcs t arcs ~clocking ~latch ~changed], where [t] and
    [changed] are {!patch}'s result and [arcs] the slave arcs of the
    analysis it patched: updates [arcs] in place to {!slave_arcs} of
    [t], bitwise, recomputing only the pins of [changed] nodes and of
    their readers (a pin's arc reads its reader's arcs and fanins and
    its driver's arrival). [arcs] must be no one else's. *)

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

val batch_slave_arrivals : t -> batch -> slave_arcs -> int -> unit
(** [batch_slave_arrivals t b arcs v] evaluates [A(u,v,t)] (Eq. 5) at
    every fanin pin position [p] of [v] (driven by [u]) in every loaded
    lane, as [max (out_rise p + D^b_rise v) (out_fall p + D^b_fall v)]
    over the hoisted arcs, into [b.a]: per lane whose cone holds [v],
    bitwise [arrival_with_slave_after t ~clocking ~latch ~u ~v ~db] with
    [arcs = slave_arcs t ~clocking ~latch] and [db] that sink's backward
    delays; [neg_infinity] in the other lanes. [v] must be in the loaded
    union (other nodes read stale lanes). Raises [Invalid_argument] when
    the scratch was built for a netlist of another size or [v] has more
    pins than any node of that netlist. Allocates nothing. *)

val forward_with_latches :
  t -> clocking:Clocking.t -> latch:Liberty.seq_cell -> int array -> float array
(** [forward_with_latches t ~clocking ~latch index]: the latch-aware
    arrival sweep, the verification run after retiming. [index] is a
    slave placement's {!Transform.pin_index} over [t]'s netlist; a pin
    it latches sees [max (slave_open + ck_to_q) (arrival + d_to_q)] per
    polarity before the cell arc. Returns the worst (max of rise and
    fall) arrival at every node: the true capture arrivals for any
    slave placement, and for {!Transform.initial_placements} those of
    the un-retimed design. The sweep is {!analyse}'s own, with the same
    per-gate kernel (so an index latching nothing reproduces {!df}
    bitwise), and adds nothing to the [sta_pin_relaxations] counter.
    Raises [Invalid_argument] when [index] has another pin count. *)

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
