(** The end every LP-based engine shares, and the two engines that are
    nothing more than one solve followed by it.

    After a retiming LP is solved, base retiming, G-RAR and the
    virtual-library retype loop all do the same: decode the slave
    placements, check the single-latch-per-path invariant, check every
    sink against its deadline on one latch-aware arrival sweep, and
    account the verified outcome on those arrivals. They differ only
    in the graph they solve, which sinks must stay out of the
    resiliency window, and how they assign error-detecting masters.

    - {b Base} (§VI-D): classic min-area retiming with the commercial
      early bias, blind to the EDL overhead; masters whose verified
      arrival lands in the window become error-detecting after the
      fact.
    - {b G-RAR} (§IV), the paper's contribution: the modified graph
      with a [P(t)] vertex per target master and the [-c] EDL reward;
      sinks the LP priced non-error-detecting are checked against the
      period, everything else against the hard max-delay bound. The
      stage's delay model selects the journal's path-based or the
      DAC'17 gate-based formulation (Table II). *)

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
(** The stage the outcome was verified on (the tail returns the stage
    it was given; the movable engine returns its moved stage), the
    outcome and the extras. *)

type solution = {
  r : int array;
  lp_latches : float;
  modelled_non_ed : int list;
}
(** What a base or G-RAR solve hands the tail: the LP solution, its
    modelled latch count and the sinks it priced non-error-detecting —
    the fields of the [Retiming] extras. A function of the LP alone. *)

val finish :
  approach:string ->
  meets_period:(int -> bool) ->
  assemble:(Transform.placement list -> float array -> Outcome.t * extras) ->
  Stage.t ->
  int array ->
  run
(** [finish ~approach ~meets_period ~assemble stage r] decodes the
    solution [r] of an LP built from [stage] (or from a stage with the
    same graph), checks its legality, and checks every sink of [stage]
    against its deadline ({!Rar_retime.Sizing.check}): the period on
    the sinks [meets_period] selects, the max-delay bound on the rest.
    A sink past its deadline fails the run with
    [Timing_violations { approach; _ }]; otherwise [assemble] gets the
    placements and the arrivals that check timed, so the tail runs one
    arrival sweep, and the run returns [stage] itself. The check
    subsumes any rejection on the assembled outcome: an outcome that
    derives its error-detecting set from these arrivals, or that
    types every master past the period error-detecting, reports no
    violation. *)

val base : ?solved:solution -> solve:solve -> c:float -> Stage.t -> run
(** Base retiming; [c] only prices the after-the-fact EDL assignment.
    Extras: [Retiming] with no modelled non-ED sinks. [solved] is a
    solution of this stage's base LP — one solved on a stage with the
    same {!Stage.lp_generation} — and skips the build and the solve;
    decoding, the legality check, the deadline check and assembly
    still run on [stage]. *)

val grar : ?solved:solution -> solve:solve -> c:float -> Stage.t -> run
(** G-RAR at EDL overhead [c]. Extras: [Retiming]. [solved] as for
    {!base}, for the G-RAR LP at this [c]. *)
