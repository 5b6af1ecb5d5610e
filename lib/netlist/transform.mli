(** Structural transforms: extraction of the combinational retiming
    view, ECO edits, and re-insertion of retimed slave latches.

    The paper's flow (§III): every flip-flop becomes a master+slave
    latch pair ({!Convert.split}); masters stay fixed, slaves are
    retimed through the combinational logic. The retiming algorithms
    work on a {!comb_circuit}: the circuit cut at its master latches,
    where every launch point (master Q pin or primary input) becomes an
    [Input] node and every capture point (master D pin or primary
    output) becomes an [Output] node. Following Fig. 4, primary inputs/outputs
    are treated as virtual master latches of the environment, so every
    source initially carries one retimable slave latch. *)

type comb_circuit = {
  comb : Netlist.t;
    (** Purely combinational: [Input], [Gate] and [Output] nodes only.
        Slave latches of the source netlist are bypassed. *)
  orig : int array;
    (** [orig.(comb_id)] is the source-netlist node that comb node
        stands for: the gate itself, the master (or flop) or primary
        input behind a source ({!Netlist.inputs}), the capturing
        master (or flop) or primary output behind a sink
        ({!Netlist.outputs}). *)
}

val extract_comb : Netlist.t -> comb_circuit
(** Cut a two-phase (or flop-based — flops act like master+slave at the
    same spot) netlist at its sequential elements. Existing [Slave]
    nodes are bypassed: their position is an input to retiming, not
    part of the extracted topology. *)

(** {1 ECO edits}

    First-class local edits for incremental (ECO) flows: applied to a
    frozen netlist, producing a new netlist plus the set of nodes whose
    timing is affected — the contract the incremental STA/stage layers
    build on. *)
module Edit : sig
  type t =
    | Resize of { node : string; drive : int }
        (** change a gate's drive strength *)
    | Rewire of { node : string; pin : int; driver : string }
        (** reconnect one input pin of a gate or output to a new driver *)
    | Annotate of { node : string; extra : float }
        (** add [extra] (may be negative, cumulative sum must stay
            >= 0) to every timing arc of a gate — an ECO delay
            annotation, e.g. modelling rerouted wires *)
    | Set_c of float  (** change the resilience-overhead c value *)

  type applied = {
    net : Netlist.t;
      (** the edited netlist. Node ids, names and pin positions are
          identical to the input's ([Resize] shares its compact view;
          [Rewire] goes through {!Netlist.with_fanins}), so index-keyed
          caches remain addressable. *)
    annot : float array;
      (** cumulative per-node extra delay (input annot + edits) *)
    c : float option;  (** last [Set_c], if any *)
    dirty_arcs : int list;
      (** gates whose timing arcs changed: resized/annotated gates,
          drivers of resized gates (their load includes the resized
          gate's input capacitance) and both old and new drivers of
          rewired pins (their fanout count, hence load, changed).
          Sorted ascending. *)
    seeds : int list;
      (** nodes whose arrival inputs changed without their own arcs
          changing (rewired nodes). Sorted ascending. *)
  }

  val apply : ?annot:float array -> Netlist.t -> t list -> applied
  (** Apply edits left to right. [annot] seeds the cumulative
      annotations (defaults to all-zero; copied, never mutated).
      Raises [Invalid_argument] on an ill-formed edit: unknown names,
      non-gate resize/annotate targets, out-of-range pins, drives < 1,
      rewires that create a combinational cycle or use an [Output] as
      driver, negative cumulative annotations, a negative or
      non-finite c. Edits that change nothing (same drive, same
      driver, zero extra) are accepted and dirty nothing. *)

  val parse_script : string -> (t list list, string) result
  (** Parse an edit script into batches. One edit per line —
      [resize NODE DRIVE], [rewire NODE PIN DRIVER],
      [annotate NODE EXTRA], [c VALUE] — with [commit] lines closing a
      batch (a trailing partial batch is closed implicitly). [#]
      starts a comment; blank lines are skipped. *)
end

type placement = {
  after : int;                (** comb node id the slave is placed after *)
  latched : (int * int) list; (** (fanout node, pin) pairs fed through the slave *)
}
(** One shared slave latch per driver, feeding the given subset of its
    fanout pins; remaining pins stay directly connected (this is the
    fanout-sharing realisation of the β=1/k cost model). Placing a
    slave after an [Input] node reproduces the un-retimed position.

    This is the one slave-placement format of the flow: the LP decoder
    ({!Rar_retime.Rgraph.placements_of}) and {!initial_placements}
    write it, and every reader — the legality check, the deadline check,
    the latch-aware timing sweep ({!Rar_sta.Sta.forward_with_latches}),
    outcome assembly and {!apply_retiming} — looks pins up through one
    {!pin_index}. *)

val slave_after : Netlist.t -> int -> keep:(int -> bool) -> placement option
(** [slave_after net u ~keep]: one slave after [u] feeding every pin
    that [u] drives on each fanout [v] with [keep v] — fanouts
    ascending, the pins of one fanout in descending pin order. [None]
    when that is no pin. *)

val initial_placements : Netlist.t -> placement list
(** The un-retimed two-phase design: one slave after every source
    ([Input]) with a fanout, feeding all of its fanout pins, in source
    order. *)

val pin_index : Netlist.t -> placement list -> int array
(** The flat per-pin index of a placement list: entry [p] is the list
    position of the placement whose slave feeds flat pin position [p]
    of [Netlist.compact net] ({!Netlist.Compact.fanin_lo} [v + pin]),
    or [-1] for a directly connected pin. Length
    [max 1 (pin count)], and the only array a call allocates. Raises
    [Invalid_argument] on a pin out of range, a pin its placement's
    [after] does not drive, or a pin latched twice. *)

val apply_retiming : comb_circuit -> placement list -> Netlist.t
(** Materialise slave latches inside the combinational circuit. The
    result is a netlist whose inputs stand for master Q pins and whose
    outputs stand for master D pins, with [Seq Slave] nodes at the
    chosen positions — the physical stage used by the error-rate
    simulator. Every node of [cc.comb] keeps its id, so its sink ids
    address the result directly; the slaves follow, one per placement
    in list order. Raises [Invalid_argument] on a placement
    {!pin_index} rejects. *)
