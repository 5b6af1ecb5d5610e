(** Movable-master extension of VL retiming (paper §VI-E, Table IX).

    The VL flow can release the "do-not-retime" constraint on master
    latches. We model that extra freedom as a bounded local search on
    the two-phase netlist: a master (with its slave) may retime
    backward across a single-input driver whose only fanout it is —
    the move a commercial retimer performs without duplicating
    registers or disturbing initial state encodings beyond what the
    paper accepts. Each candidate move is evaluated by re-running the
    fixed-master RVL flow on the perturbed circuit and kept only if the
    verified total area improves.

    The paper's finding — that this flexibility yields little to no
    average gain — is what this bounded search reproduces; DESIGN.md
    records the restriction. *)

module Netlist = Rar_netlist.Netlist
module Liberty = Rar_liberty.Liberty
module Clocking = Rar_sta.Clocking

type t = {
  fixed : Vl.t;           (** the fixed-master RVL result *)
  movable : Vl.t;         (** after accepted master moves *)
  moves_tried : int;
  moves_kept : int;
}

val run :
  ?deadline:Rar_util.Deadline.t ->
  ?on_fallback:(Rar_flow.Difflp.fallback_event -> unit) ->
  ?engine:Rar_flow.Difflp.engine ->
  ?model:Rar_sta.Sta.model ->
  ?max_moves:int ->
  lib:Liberty.t ->
  clocking:Clocking.t ->
  c:float ->
  Netlist.t ->
  (t, Rar_retime.Error.t) result
(** [two_phase] netlist in, as produced by {!Rar_netlist.Transform.to_two_phase}.
    [max_moves] (default 6) bounds the candidate evaluations.
    [?deadline] is force-checked before every candidate move (phase
    ["movable-search"]) and threaded into each inner VL run;
    [?on_fallback] reports successful alternate-solver retries. *)
