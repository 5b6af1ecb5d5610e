(** G-RAR: graph-based resiliency-aware retiming (paper §IV), the
    paper's primary contribution.

    Pipeline: stage analysis → modified retiming graph with [P(t)]
    vertices and the [-c] EDL reward → min-cost-flow solve → slave
    placement → verified assembly, with a size-only fix pass on any
    sink the model claimed non-error-detecting but whose verified
    arrival lands in the resiliency window. *)

module Difflp = Rar_flow.Difflp

type t = {
  outcome : Outcome.t;
  stage : Stage.t;          (** post-sizing stage (ids unchanged) *)
  r : int array;            (** LP solution over the graph variables *)
  modelled_non_ed : int list;  (** targets the LP decided need no EDL *)
  lp_latches : float;       (** modelled (shared) slave-latch count *)
}

val run_on_stage :
  ?deadline:Rar_util.Deadline.t ->
  ?on_fallback:(Difflp.fallback_event -> unit) ->
  ?engine:Difflp.engine ->
  ?solve_cache:Difflp.cache ->
  c:float ->
  Stage.t ->
  (t, Error.t) result
(** G-RAR at EDL overhead [c] on a stage analysis; the stage's delay
    model ([Stage.make ~model]) selects the journal's path-based or the
    DAC'17 gate-based formulation (Table II compares both). [engine]
    defaults to {!Difflp.default_engine}. [?deadline], [?on_fallback]
    and [?solve_cache] are threaded into the LP solve (see
    {!Rgraph.solve}). Wall-clock time is measured one layer up, by
    [Rar_engine.run]. *)
