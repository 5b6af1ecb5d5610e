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
    ignores it. Derived stages (e.g. after sizing) inherit it.

    [annot] is a per-node ECO delay annotation forwarded to
    {!Sta.analyse} and recorded in the stage ({!annot}); derived stages
    must carry it forward. *)

val patch : t -> Transform.Edit.applied -> (t, Error.t) result
(** Incremental re-analysis after a {!Transform.Edit.apply}: runs
    {!Sta.patch} over the edit's dirty set, recomputes the (cheap)
    region and initial-arrival passes, and re-classifies only sinks
    forward-reachable from a changed node, reusing the cached
    classification of every other sink. The result is identical —
    bitwise, including table iteration orders — to
    [make ~model ~annot:applied.annot] on the edited circuit, at a
    cost proportional to the affected cones. The input stage must be
    the one the edit was applied against (same netlist, same
    cumulative annotations). *)

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

val slave_latch : t -> Liberty.seq_cell
(** The latch cell used for slave timing (the library's normal latch). *)

val illegal_edges : t -> (int * int) list
(** Comb edges [(u, v)] on which a slave latch can never be legal: for
    some sink [t], [A(u,v,t) > max_delay]. The paper's node-level
    [V_m]/[V_n] regions approximate this; the per-edge set makes
    Constraint (7) exact, and {!Rgraph.build} always forbids these
    positions. Sources whose initial (host-edge) position covers an
    illegal edge are promoted to [V_m]. *)

val db_of_sink : t -> int -> Sta.db
(** Backward delays to one sink (uncached; computed on demand). *)

val a_value : t -> db:Sta.db -> u:int -> v:int -> float
(** Eq. 5 [A(u,v,t)] for a slave on edge [(u,v)], for the sink whose
    backward delays are [db]. When [u] is a source, the host-edge
    position (slave at the source output) is the [u]=source case
    itself. *)

val initial_arrival : t -> int -> float
(** Arrival at a sink with every slave at its initial (source) position
    — the un-retimed two-phase design. *)

val near_critical_initial : t -> int list
(** Sinks near-critical in the {e initial} two-phase design (slaves at
    the sources, so the slave-opening floor delays every path): the NCE
    set Table I reports and the RVL-RAR seed. Most of these are
    retiming-dependent targets — pure combinational delay below the
    period but initial arrival inside the resiliency window. *)

val window_edges : t -> int -> (int * int) list
(** For a [Target] sink: the cone edges [(u, v)] whose [A(u,v,t)]
    exceeds the period — a slave there forces [t] error-detecting.
    Computed during classification and cached. [Never_ed] sinks return
    [[]]; [Always_ed] sinks raise [Invalid_argument] (every position is
    inside the window). *)

val max_path : t -> int -> float
(** Longest pure combinational path delay into a sink: its forward
    arrival, {!Sta.arrival_at_sink} (polarity-paired). Defined without
    the sink's cone, so sinks the classification prunes have it too;
    [Invalid_argument] on a non-sink. *)

val fanout_groups : t -> (int * (int * int) list) list
(** For every comb node with at least one fanout, in node order: the
    node paired with its distinct fanout nodes and, per fanout, the
    number of parallel pins — the sharing groups the retiming graph
    models with mirror vertices. (Second component lists
    [(fanout_node, pin_count)], ascending by fanout node.) *)

val pp_summary : Format.formatter -> t -> unit
