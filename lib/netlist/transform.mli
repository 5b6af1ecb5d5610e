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

  val pp : Format.formatter -> t -> unit
  (** Prints in the {!parse_script} grammar. *)

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
    slave after an [Input] node reproduces the un-retimed position. *)

val apply_retiming : comb_circuit -> placement list -> Netlist.t
(** Materialise slave latches inside the combinational circuit. The
    result is a netlist whose inputs stand for master Q pins and whose
    outputs stand for master D pins, with [Seq Slave] nodes at the
    chosen positions — the physical stage used by the error-rate
    simulator. Every node of [cc.comb] keeps its id, so its sink ids
    address the result directly; the slaves follow, one per placement
    in list order. Raises [Invalid_argument] on a placement referencing
    a pin twice or a non-existent edge. *)
