(** Prepared benchmarks: generate, convert to two-phase, derive the
    clock, measure the Table I statistics. The single entry point every
    experiment driver uses. *)

module Netlist = Rar_netlist.Netlist
module Transform = Rar_netlist.Transform
module Liberty = Rar_liberty.Liberty
module Sta = Rar_sta.Sta
module Clocking = Rar_sta.Clocking

type prepared = {
  name : string;
  flop_netlist : Netlist.t;   (** original flip-flop design *)
  two_phase : Netlist.t;      (** after master/slave splitting *)
  cc : Transform.comb_circuit;
  lib : Liberty.t;
  clocking : Clocking.t;      (** the paper's 0.3/0/0.35/0.05 split of [p] *)
  p : float;                  (** derived max stage delay *)
  n_flops : int;
  nce : int;                  (** measured near-critical endpoints *)
  flop_area : float;          (** area of the flop-based design (Table I) *)
  runtime_s : float;          (** preparation time *)
}

val derive_clocking :
  ?clock:(float -> Clocking.t) -> Sta.t -> Clocking.t * float
(** Clock of a stage from its analysis (the path-based STA of the
    stage's [comb] netlist, as {!prepare} runs it): [p] is the measured
    critical arrival plus a latch-delay guard band, split per §VI-A.
    [clock] maps the derived [p] to the clocking model (default
    {!Clocking.of_p}; pass {!Clocking.of_p3} for the three-phase
    scheme). *)

val prepare :
  ?lib:Liberty.t ->
  ?clock:(float -> Clocking.t) ->
  ?flop_base:Netlist.t ->
  Netlist.t ->
  prepared
(** Prepare an arbitrary netlist — flop-based (e.g. a parsed ".bench"
    file) or already latch-based (a {!Rar_netlist.Convert} output,
    whose master/slave pairs pass through unchanged). Flops are split
    by {!Rar_netlist.Convert.split} [Two]. [lib] defaults to
    {!Liberty.default}; [clock] as in {!derive_clocking}. [flop_base]
    supplies the edge-triggered source of a converted netlist: it
    becomes [flop_netlist] and the basis for [n_flops]/[flop_area], so
    flop-domain consumers (classic retiming, Table I baselines) keep
    operating on the original design. *)

val load : ?lib:Liberty.t -> string -> (prepared, string) result
(** Load a named benchmark (case-insensitive): Table I names,
    ["plasma"], or ["pipe<stages>"] for the pipelined-datapath family
    ({!Generator.pipeline}, 1-64 stages). A [".conv"] (or [".conv3"])
    suffix on any of these converts the edge-triggered base design
    through {!Rar_netlist.Convert} first — [".conv3"] uses the
    three-phase decomposition and derives a
    {!Clocking.Three_phase} clock. *)
