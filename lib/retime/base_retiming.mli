(** Base retiming: the resiliency-unaware comparison point (paper
    §VI-D).

    Classic min-area (minimum latch count) retiming subject only to the
    slave timing legality constraints — the EDL overhead is invisible
    to the optimiser, exactly like a commercial retiming command.
    Masters whose verified arrival falls in the resiliency window are
    then replaced with error-detecting latches after the fact. *)

module Difflp = Rar_flow.Difflp

type t = {
  outcome : Outcome.t;
  stage : Stage.t;
  r : int array;
  lp_latches : float;
}

val run_on_stage :
  ?deadline:Rar_util.Deadline.t ->
  ?on_fallback:(Difflp.fallback_event -> unit) ->
  ?engine:Difflp.engine ->
  ?solve_cache:Difflp.cache -> c:float -> Stage.t -> (t, Error.t) result
(** [c] only affects the area accounting of the after-the-fact EDL
    assignment, never the optimisation. [?deadline], [?on_fallback]
    and [?solve_cache] are threaded into the LP solve (see
    {!Rgraph.solve}). *)
