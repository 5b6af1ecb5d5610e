(** Gate-level sequential netlists.

    A netlist is a directed graph of typed nodes: primary inputs,
    primary outputs, combinational gates and sequential elements
    (flip-flops, or master/slave latches after two-phase conversion).
    Nodes are addressed by dense integer ids, which every other library
    in this project uses as array indices.

    Netlists are built through a {!Builder}, then frozen into an
    immutable {!t} whose graph is one {!Compact} CSR (fanin rows,
    fanout rows and a combinational topological order). Combinational
    cycles are rejected at freeze time; cycles through sequential
    elements are legal. *)

type seq_role =
  | Flop    (** edge-triggered D flip-flop (original benchmark form) *)
  | Master  (** master latch of a two-phase pair (fixed by retiming) *)
  | Slave   (** slave latch of a two-phase pair (retimed) *)

type kind =
  | Input
  | Output                                    (** one fanin *)
  | Gate of { fn : Cell_kind.t; drive : int } (** drive strength >= 1 *)
  | Seq of seq_role                           (** one fanin (D pin) *)

type t

(** {1 The graph}

    A netlist's graph as immutable int-packed CSR (compressed sparse
    row) arrays: the only adjacency a frozen netlist keeps. It is built
    once per freeze and shared by every netlist derived from the same
    freeze ([with_drive] rewrites a kind only, never topology). Every
    walk of the graph — STA, stage classification, the retiming graph,
    simulation, the rewrites in {!Transform} and {!Convert} — reads
    these flat int arrays; {!fanins} and {!fanouts} copy one row out
    for cold callers. Node ids are identical to the owning netlist's,
    so the name↔id side table is the netlist itself
    ({!node_name}/{!find}). *)
module Compact : sig
  type t = private {
    n : int;
    tags : int array;        (** {!tag} per node *)
    fanin_head : int array;  (** length n+1: {!fanin_lo} per node *)
    fanin : int array;       (** {!fanin} per flat pin position *)
    fanout_head : int array; (** length n+1, as [fanin_head] *)
    fanout : int array;      (** {!fanout} per flat position *)
    topo : int array;        (** {!topo} *)
  }
  (** The fields are the accessors below as flat arrays — shared,
      never mutate them. Per-sink kernels read them directly: under
      separate compilation every accessor call is a real call. *)

  val n : t -> int
  (** Node count; ids are [0 .. n-1], same numbering as the netlist. *)

  val tag : t -> int -> int
  (** Kind folded to an int: {!tag_input}, {!tag_output}, {!tag_gate}
      or {!tag_seq}. Gate fn/drive stay on the owning netlist. *)

  val tag_input : int
  val tag_output : int
  val tag_gate : int
  val tag_seq : int

  val fanin_lo : t -> int -> int
  val fanin_hi : t -> int -> int
  (** Pin positions of node [v] are [fanin_lo v .. fanin_hi v - 1] in
      the flat fanin array; position order is pin order. The positions
      are globally unique, so per-pin side arrays (STA arc tables) can
      be indexed by them directly. *)

  val fanin : t -> int -> int
  (** [fanin t p] is the driver id at flat pin position [p]. *)

  val fanin_deg : t -> int -> int

  val fanout_lo : t -> int -> int
  val fanout_hi : t -> int -> int
  val fanout : t -> int -> int
  (** Fanout ids at flat positions: per node ascending, each reader
      once per connected pin, so the parallel pins of one fanout are
      adjacent. *)

  val topo : t -> int array
  (** The owning netlist's {!topo_comb}, shared (do not mutate). *)
end

val compact : t -> Compact.t
(** The netlist's graph (shared, never rebuilt after freeze). *)

(** {1 Construction} *)

(** Nodes are added with their fanins as [int array]s in pin order.
    The builder holds each array until {!freeze}, which copies every
    row into the frozen netlist's CSR: after the freeze the arrays are
    the caller's again, and changing one changes no netlist. *)
module Builder : sig
  type netlist := t
  type t

  val create : ?name:string -> unit -> t

  val add_input : t -> string -> int
  (** Fresh primary-input node; returns its id. *)

  val add_output : t -> string -> fanin:int -> int
  val add_gate :
    t -> string -> fn:Cell_kind.t -> ?drive:int -> fanins:int array -> unit -> int
  val add_seq : t -> string -> role:seq_role -> fanin:int -> int

  val add_gate_deferred :
    t -> string -> fn:Cell_kind.t -> ?drive:int -> unit -> int
  (** Gate whose fanins are supplied later with {!connect}; needed when
      parsing formats that reference signals before defining them. *)

  val add_seq_deferred : t -> string -> role:seq_role -> int
  val add_output_deferred : t -> string -> int

  val copy : t -> netlist -> int -> int
  (** [copy b net v] adds a node with [v]'s name and kind whose fanins
      are supplied later with {!connect} ([[||]] for an input): the one
      way a rebuild carries a node of [net] over. *)

  val connect : t -> int -> fanins:int array -> unit
  (** Set the fanins of a deferred node. Raises [Invalid_argument] if
      the node already has fanins. *)

  val node_count : t -> int

  val freeze : t -> netlist
  (** Copy the rows into the CSR, validate and seal. Raises [Failure] describing the defect when
      the netlist is malformed: dangling deferred fanins, duplicate
      names, bad arities, combinational cycles, outputs/seqs without a
      driver. Each name is hashed once, into the table {!find} reads;
      the first defective node in id order is the one reported. *)
end

(** {1 Accessors} *)

val name : t -> string
val node_count : t -> int
val kind : t -> int -> kind
val node_name : t -> int -> string
val find : t -> string -> int option
(** Look a node up by name. *)

val fanins : t -> int -> int array
(** A fresh copy of [v]'s fanin row of the {!Compact} CSR: fanin ids,
    in pin order. For cold callers; graph walks read the CSR. *)

val fanouts : t -> int -> int array
(** A fresh copy of [v]'s fanout row of the {!Compact} CSR: fanout ids
    (each repeated once per connected pin), ascending, so the parallel
    pins of one fanout are adjacent. *)

val fanout_count : t -> int -> int
(** Length of [v]'s fanout row, without copying it. *)

val inputs : t -> int array
val outputs : t -> int array
val seqs : t -> int array
(** All sequential nodes, in id order. *)

val gates : t -> int array
(** All combinational gate nodes, in topological order. *)

val topo_comb : t -> int array
(** All nodes in an order where every node follows its combinational
    fanins; sequential nodes and inputs are sources (their fanin edge
    is not an ordering constraint). Note the asymmetry: a sequential
    node follows its (combinational) driver, but nodes {e reading} a
    sequential output may appear before it — evaluation passes that
    treat sequential values as state must initialise them up front or
    iterate to a fixpoint. *)

val is_seq : t -> int -> bool

val iter_edges : t -> (int -> int -> unit) -> unit
(** [iter_edges t f] calls [f u v] for every connection u -> v (once
    per pin). *)

(** {1 Queries} *)

val fanout_cone : t -> int -> bool array
(** [fanout_cone t v] marks every node [v] reaches through purely
    combinational paths, stopping at (and including) outputs and
    sequential nodes; [v] itself is marked. *)

val comb_depth : t -> int
(** Longest combinational path, counted in gates. *)

(** {1 Rewriting} *)

val with_drive : t -> int -> int -> t
(** [with_drive t v d] returns a copy where gate [v] has drive [d].
    Raises [Invalid_argument] when [v] is not a gate or [d < 1]. *)

val with_fanins : t -> (int * int array) list -> t
(** [with_fanins t changes] replaces the fanins of each listed node
    (a later entry for the same node wins). Every node keeps its id,
    name and kind, so arrays indexed by node id stay valid; the CSR is
    rebuilt from [t]'s rows and copies of the listed ones, so no array
    in [changes] is kept. Validated
    like {!Builder.freeze}: raises [Failure] on a bad arity, a dangling
    or output fanin, or a combinational cycle. The names are unchanged,
    so the name table is shared, not rebuilt. *)

val pp_summary : Format.formatter -> t -> unit
(** One-line "name: #pi #po #gate #seq depth" summary. *)

val digest : t -> string
(** MD5 hex over the complete structure — names, kinds, drives and
    fanin wiring, in id order. Two netlists with equal digests are
    structurally identical node for node; the suite regression tests
    pin these values to freeze the generator and conversion passes. *)
