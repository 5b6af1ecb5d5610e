(** Retiming stage: a combinational circuit cut at its master latches,
    analysed and classified for slave-latch retiming (paper §III–IV).

    Wraps the {!Transform.comb_circuit} with its timing analysis and
    precomputes everything the retiming graphs need:

    - retiming regions [V_m] / [V_n] / [V_r] (§IV-B): nodes a slave
      {e must} move through (Constraint 7), nodes it {e cannot} move
      through (Constraint 6), and the free region;
    - per-sink classification: never error-detecting, always
      error-detecting, or a {e target} whose EDL status depends on the
      retiming, together with its cut set [g(t)] (Eq. 8–9). A sink
      whose arrival plus the most any slave can add
      ({!Sta.slave_delay_bound}) is within the period is never
      error-detecting outright, without a scan of its cone. *)

module Netlist = Rar_netlist.Netlist
module Transform = Rar_netlist.Transform
module Liberty = Rar_liberty.Liberty
module Sta = Rar_sta.Sta
module Clocking = Rar_sta.Clocking

type region = Rm | Rn | Rr

type sink_class =
  | Never_ed   (** arrival is inside [period] wherever slaves go *)
  | Always_ed  (** some path exceeds [period] wherever slaves go *)
  | Target of { cut : int list }
      (** EDL status decided by retiming; [cut] is [g(t)] *)

type t

val make :
  ?model:Sta.model ->
  ?sta:Sta.t ->
  ?source:Netlist.t ->
  ?annot:float array ->
  lib:Liberty.t ->
  clocking:Clocking.t ->
  Transform.comb_circuit ->
  (t, Error.t) result
(** Analyse a stage. [model] defaults to [Path_based]. Errors
    ([Illegal_stage]) when a node violates both Constraint (6) and (7)
    (no legal slave position on some path) or ([Untimeable_sink]) when
    a sink cannot meet [max_delay] at all.

    [source] optionally records the two-phase netlist the
    [comb_circuit] was extracted from; engines that perturb the full
    netlist (the movable-master search) require it, everything else
    ignores it. Derived stages (e.g. patched ones) inherit it.

    [annot] is a per-node ECO delay annotation forwarded to
    {!Sta.analyse} and recorded in the stage ({!annot}); derived stages
    must carry it forward.

    [sta] is an analysis to use instead of running one: {!Sta.analyse}
    of [cc]'s comb netlist (the same physical netlist) under [model]
    and [annot] — a prepared circuit's ({!Rar_circuits.Suite}). It
    becomes the stage's {!sta}. A shared analysis must have its
    {!Sta.backward_all} memo forced before it is shared.
    [Invalid_argument] when it analyses another netlist or model. *)

val patch : t -> Transform.Edit.applied -> (t, Error.t) result
(** Incremental re-analysis after a {!Transform.Edit.apply}: runs
    {!Sta.patch} over the edit's dirty set and re-classifies only the
    sinks forward-reachable from a changed node, reusing the cached
    classification of every other sink. The result is identical —
    bitwise, down to every window pin and illegal pin — to
    [make ~model ~annot:applied.annot] on the edited circuit. The
    input stage must be the one the edit was applied against (same
    netlist, same cumulative annotations).

    Cost. The first patch of a stage pays one whole-design pass for
    the state a patch carries forward (the multi-sink backward times,
    the per-node launch test, the slave arcs of {!Sta.slave_arcs} and
    a classification scratch); a stage built by [patch] holds it, and
    its own patch updates it where the edit can have moved it: the
    backward times and regions over the dirty backward cone
    ({!Sta.patch_backward_all}), the slave arcs on the pins of changed
    nodes and their readers ({!Sta.patch_slave_arcs}), the sink index
    kept. What remains is proportional to the affected cones, plus a
    few copies and scans of per-node and per-pin arrays. A stage that
    [make] built carries nothing, so cold stages do not grow. The
    state is read-only once built (the scratch passes from a stage to
    its patch through an atomic slot), so a stage stays shareable
    between domains. *)

val lp_generation : t -> int
(** A signal that the retiming LP's inputs did not change: two stages
    with the same generation give the same {!Rgraph.build} LP, since
    they share the graph, the regions, the illegal pins and every
    sink's class and cut set. {!make} draws a fresh generation on
    every call. {!patch} keeps its input's when the batch rewired no
    pin ([seeds = []]) and the regions, the illegal pins and the
    class and g(t) of every re-classified sink came out as they were;
    otherwise it draws a fresh one. Stages with different generations
    may still give equal LPs. *)

val with_sweep_per_participant : int -> (unit -> 'a) -> 'a
(** [with_sweep_per_participant w f] runs [f] with [w], not a million,
    as the estimated swept nodes each pool participant of a sink
    classification needs: tests pass 1 to classify small stages in
    parallel. Results never depend on it. *)

val annot : t -> float array option
(** The ECO delay annotations this stage was analysed under. *)

val cc : t -> Transform.comb_circuit
val source : t -> Netlist.t option
val comb : t -> Netlist.t
val sta : t -> Sta.t
val lib : t -> Liberty.t
val clocking : t -> Clocking.t
val model : t -> Sta.model

val region : t -> int -> region
(** Region of a comb node. Sinks are always [Rn]. *)

val sinks : t -> int array
val classify : t -> int -> sink_class
(** Classification of a sink node; [Invalid_argument] on any other
    node. *)

val illegal_pins : t -> int array
(** The fanin pin positions ({!Netlist.Compact}) that can never hold a
    slave, ascending and each once: for some sink [t],
    [A(u,v,t) > max_delay] on the pin's edge. The paper's node-level
    [V_m]/[V_n] regions approximate this; the per-edge set makes
    Constraint (7) exact, and {!Rgraph.build} always forbids these
    positions. Sources that drive an illegal pin (their initial
    host-edge position covers it) are promoted to [V_m]. Parallel pins
    of one driver are illegal together. Shared: never mutate the
    array. *)

val db_of_sink : t -> int -> Sta.db
(** Backward delays to one sink (uncached; computed on demand). *)

val a_value : t -> db:Sta.db -> u:int -> v:int -> float
(** Eq. 5 [A(u,v,t)] for a slave on edge [(u,v)], for the sink whose
    backward delays are [db]. When [u] is a source, the host-edge
    position (slave at the source output) is the [u]=source case
    itself. *)

val latched_arrivals : t -> int array -> float array
(** [latched_arrivals t index]: the stage's latch-aware arrival sweep
    ({!Sta.forward_with_latches} under the stage's clocking and slave
    latch) for the slave placement whose {!Transform.pin_index} is
    [index]: the worst verified arrival at every node. *)

val initial_arrivals : t -> float array
(** {!latched_arrivals} of {!Transform.initial_placements} — the
    un-retimed two-phase design — swept afresh on each call (building
    or patching a stage does not run it). *)

val near_critical_initial : t -> int list
(** Sinks near-critical in the {e initial} two-phase design (slaves at
    the sources, so the slave-opening floor delays every path): the
    sinks whose {!initial_arrivals} fail {!Clocking.past_period}, in
    sink order. This is the NCE set Table I counts and the RVL-RAR
    seed. Most of these are retiming-dependent targets — pure
    combinational delay below the period but initial arrival inside
    the resiliency window. *)

val window_pins : t -> int -> int array
(** For a [Target] sink: the cone's fanin pin positions whose edge
    [(u, v)] has [A(u,v,t)] past the period — a slave there forces
    [t] error-detecting — ascending (node id, then pin order). Computed
    during classification and shared: never mutate the array.
    [Never_ed] sinks return [[||]]; [Always_ed] sinks raise
    [Invalid_argument] (every position is inside the window). *)

val max_path : t -> int -> float
(** Longest pure combinational path delay into a sink: its forward
    arrival, {!Sta.arrival_at_sink} (polarity-paired). Defined without
    the sink's cone, so sinks the classification prunes have it too;
    [Invalid_argument] on a non-sink. *)

val pp_summary : Format.formatter -> t -> unit
