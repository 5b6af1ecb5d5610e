(** Event-driven two-vector timing simulation and error-rate
    measurement (paper Table VIII).

    Simulates one clock cycle of a retimed two-phase stage: the sources
    (master Q pins) switch from a settled previous vector to the next
    vector at the master launch edge; transitions propagate through the
    gates with the library's pin-to-pin delays; slave latches are
    opaque until [slave_open], transparent until [slave_close];
    capture points record their last transition time.

    An {e error} is a transition captured inside the resiliency window
    [(period, period + phi1]] at an error-detecting master. The same
    event at a non-error-detecting master is a {e silent failure} (the
    design would corrupt data). The simulator reports them separately
    as a safety check; they are not always zero, because each gate
    transition here takes the gate's worst pin arc while the STA that
    assigns error detection times every pin separately.

    A design is {!compile}d once; each {!run_cycle} then walks flat
    arrays and evaluates gates without allocating. *)

module Netlist = Rar_netlist.Netlist
module Transform = Rar_netlist.Transform
module Liberty = Rar_liberty.Liberty
module Clocking = Rar_sta.Clocking

type design = {
  staged : Netlist.t;
    (** combinational stage with physical [Seq Slave] nodes, as built
        by {!Transform.apply_retiming} *)
  lib : Liberty.t;
  clocking : Clocking.t;
  ed_sinks : int list;
    (** error-detecting [Output] nodes of [staged]; a retiming
        outcome's sink ids serve as they are, since
        {!Transform.apply_retiming} keeps every comb id *)
}

type compiled
(** Everything a cycle reads that does not depend on the vectors:
    each gate's worst-pin rise and fall delay (the largest
    {!Liberty.pin_arc} over its pins at its {!Liberty.gate_load}), the
    staged netlist's {!Netlist.Compact} fanin/fanout arrays, each
    node's role and cell function (gates evaluate through
    {!Rar_netlist.Cell_kind.eval_at}), the input, slave and
    error-detecting lookup arrays, the clock edges, and one
    topological order in which latches are transparent, so settling
    the previous vector is a single pass. Immutable: one compiled
    design may be simulated from several domains at once. *)

val compile : design -> compiled
(** Raises [Invalid_argument] when the staged netlist has a cycle
    through its latches. *)

type cycle_result = {
  errors : int list;          (** ED masters that flagged this cycle *)
  silent : int list;          (** window hits on non-ED masters *)
  late : int list;            (** arrivals beyond [max_delay] *)
  late_at_slave : int list;   (** slaves whose input moved after closing —
                                  an observed Constraint (6) violation *)
  capture_times : (int * float) list;  (** latest transition per sink *)
}

val run_cycle :
  ?on_event:(time:float -> node:int -> value:bool -> unit) ->
  compiled -> prev:bool array -> next:bool array -> cycle_result
(** Simulate one launch with the given source vectors (indexed in
    [Netlist.inputs] order). [on_event] observes every applied value
    change in time order (used by the {!Vcd} writer).

    Events wait in a {!Rar_util.Heap}, whose tie order depends only on
    the push order: slave wake-ups are pushed first, in id order, then
    the launched inputs, in input order, so events at equal times pop
    in one fixed order and every result is deterministic. *)

type rate = {
  cycles : int;
  error_cycles : int;        (** cycles with at least one ED flag *)
  error_events : int;        (** total (cycle, master) flags *)
  silent_cycles : int;
  error_rate : float;        (** [error_cycles / cycles * 100], the
                                 percentage Table VIII reports *)
}

val error_rate :
  ?cycles:int -> seed:string -> design -> rate
(** Compile the design once and drive [cycles] (default 500) random
    vector pairs from a named deterministic stream, inside a
    [sim/error_rate] span. Publishes the [sim_cycles] and [sim_events]
    (value changes applied) counters once per call. *)
