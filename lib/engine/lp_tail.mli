(** The end every LP-based engine shares, and the two engines that are
    nothing more than one solve followed by it.

    After a retiming LP is solved, base retiming, G-RAR and the
    virtual-library retype loop all do the same: decode the slave
    placements, check the single-latch-per-path invariant, size-fix
    against per-sink deadlines, assemble the verified outcome and
    reject any remaining timing violation. They differ only in the
    graph they solve, which sinks must stay out of the resiliency
    window, and how they assign error-detecting masters.

    - {b Base} (§VI-D): classic min-area retiming with the commercial
      early bias, blind to the EDL overhead; masters whose verified
      arrival lands in the window become error-detecting after the
      fact.
    - {b G-RAR} (§IV), the paper's contribution: the modified graph
      with a [P(t)] vertex per target master and the [-c] EDL reward;
      sinks the LP priced non-error-detecting are size-fixed to the
      period, everything else to the hard max-delay bound. The stage's
      delay model selects the journal's path-based or the DAC'17
      gate-based formulation (Table II). *)

module Transform = Rar_netlist.Transform
module Stage = Rar_retime.Stage
module Rgraph = Rar_retime.Rgraph
module Outcome = Rar_retime.Outcome
module Error = Rar_retime.Error

(** What an engine reports beyond the shared outcome; documented where
    {!Rar_engine} re-exports it. *)
type extras =
  | No_extras
  | Retiming of {
      r : int array;
      lp_latches : float;
      modelled_non_ed : int list;
    }
  | Retype of {
      initial_ed : int list;
      forced_to_ed : int list;
      swapped_to_non_ed : int list;
      retype_rounds : int;
    }
  | Moves of {
      moves_tried : int;
      moves_kept : int;
      fixed_total_area : float;
    }

type solve = Rgraph.t -> (int array, Error.t) result
(** One LP solve with the run's deadline, fallback hook, flow solver
    and solve cache already applied. *)

type run = (Stage.t * Outcome.t * extras, Error.t) result
(** The post-sizing stage, the outcome verified on it, and the extras. *)

val finish :
  approach:string ->
  meets_period:(int -> bool) ->
  assemble:(Stage.t -> Transform.placement list -> Outcome.t * extras) ->
  Stage.t ->
  Rgraph.t ->
  int array ->
  run
(** [finish ~approach ~meets_period ~assemble stage g r] decodes the
    solution [r] of [g], checks it, size-fixes [stage] to the period
    on the sinks [meets_period] selects and to the max-delay bound on
    the rest, and assembles on the sized stage. Any violation left is
    [Timing_violations { approach; _ }]. *)

val base : solve:solve -> c:float -> Stage.t -> run
(** Base retiming; [c] only prices the after-the-fact EDL assignment.
    Extras: [Retiming] with no modelled non-ED sinks. *)

val grar : solve:solve -> c:float -> Stage.t -> run
(** G-RAR at EDL overhead [c]. Extras: [Retiming]. *)
