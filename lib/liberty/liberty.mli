(** Synthetic standard-cell library.

    Stands in for the commercial FDSOI 28nm library of the paper. Only
    relative delays and areas matter for the paper's conclusions; this
    library reproduces the properties the text calls out explicitly:

    - pin-to-pin rise/fall delays with a linear load model, so the
      path-based STA of §VI-B has real slack over the gate-based model;
    - multiple drive strengths, which ECO resize edits choose among;
    - a latch whose D-to-Q and clock-to-Q delays differ by ~40% (§III);
    - a latch area that is 43% of the flip-flop area (§VI-D);
    - error-detecting latches parameterised by overhead [c] in 0.5..2,
      with area [(1 + c) x] the normal latch (§II-B: Fig. 4's example
      has c = 2, i.e. a 3-unit EDL vs 1-unit latch). The engines price
      that overhead from {!latch}'s area ([Rar_retime.Outcome]) and the
      virtual library (§V) as LP constraints; neither needs a cell of
      its own here. *)

module Cell_kind = Rar_netlist.Cell_kind
module Netlist = Rar_netlist.Netlist

type arc = { rise : float; fall : float }
(** A pair of delays (ns) or of any rise/fall-indexed quantity. *)

val arc_max : arc -> float

type comb_cell = {
  fn : Cell_kind.t;
  drive : int;
  area : float;
  input_cap : float;     (** load each input pin presents, in cap units *)
  intrinsic : arc;       (** pin-to-pin intrinsic delay, ns *)
  load_slope : arc;      (** ns per cap unit of output load *)
  pin_derate : float;    (** arc of pin [i] is scaled by [1 + i*pin_derate] *)
}

type seq_cell = {
  seq_area : float;
  d_to_q : float;        (** transparent-latch D-to-Q propagation, ns *)
  ck_to_q : float;       (** opening-edge clock-to-Q, ns *)
  setup : float;         (** setup before closing edge, ns *)
  seq_input_cap : float;
}

type t

val default : unit -> t
(** The library used by every experiment; deterministic. *)

val make :
  name:string ->
  cells:comb_cell list ->
  latch:seq_cell ->
  flop:seq_cell ->
  wire_cap_per_fanout:float ->
  t
(** General constructor from explicit cell records (used by the
    Liberty-file reader). The drive list is derived from the cells. *)

val all_cells : t -> comb_cell list
(** Every combinational cell, sorted by (kind, drive) — the writer's
    iteration order. *)

val wire_cap_per_fanout : t -> float

val synthetic :
  name:string ->
  cells:((Cell_kind.t * int) * float * float) list ->
  latch:seq_cell ->
  flop:seq_cell ->
  t
(** Build a toy library with constant cell delays:
    [((fn, drive), area, delay)] gives the cell a load-independent,
    transition-independent [delay] — the model of the paper's Fig. 4
    walkthrough, where each gate has a single fixed delay and
    [D_l = 0]. Input caps and wire caps are zero. *)

val name : t -> string

val drives : t -> int list
(** Available drive strengths, ascending (e.g. [1; 2; 4]). *)

val comb_cell : t -> Cell_kind.t -> drive:int -> comb_cell
(** Raises [Invalid_argument] for an unavailable drive. *)

val latch : t -> seq_cell
(** The normal (time-borrowing, non-error-detecting) latch. *)

val flop : t -> seq_cell
(** The original flip-flop the benchmarks are written with. *)

(** {1 Delay queries}

    [load] is the total capacitive load at the cell output (sum of the
    fanout pins' input caps plus an estimated wire load of
    {!wire_cap_per_fanout} per fanout). *)

val pin_arc : comb_cell -> pin:int -> load:float -> arc
(** Pin-to-pin delay of input [pin] to output, rise/fall of the
    {e output} transition. *)

val gate_load : t -> Netlist.t -> int -> float
(** Output load of node [v] in a netlist: fanout pins + wire. *)

val pin_arcs :
  t -> Netlist.t -> int -> rise:float array -> fall:float array -> at:int ->
  unit
(** [pin_arcs t net v ~rise ~fall ~at] writes {!pin_arc} of every input
    pin [i] of gate [v], under its {!gate_load}, to [rise.(at + i)] and
    [fall.(at + i)]: a whole gate's arcs, bitwise those of {!pin_arc},
    with nothing allocated. [Invalid_argument] unless [v] is a gate. *)

val comb_area : t -> Netlist.t -> float
(** Total area of the combinational gates only. *)
