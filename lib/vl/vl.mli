(** Virtual-library resilient-aware retiming (paper §V).

    Simulates how a commercial synthesis tool retimes a two-phase
    resilient design when the cell library is augmented with the three
    virtual latch groups: normal latches, non-error-detecting latches
    with the resiliency window folded into their setup time, and
    error-detecting latches with area inflated by [1 + c].

    The decisive modelling point (§VI-D) is that the tool's latch-type
    decision is {e decoupled} from retiming: master types are fixed
    up-front per variant, retiming then minimises the slave-latch count
    subject to the setup constraints those types imply (a non-ED master
    must see its data before the resiliency window opens, i.e. no
    slave may sit on an edge with [A(u,v,t) > period]), and only a
    separate post-retiming pass may swap latch types. This reproduces
    the paper's observed gap to G-RAR, which couples both decisions in
    one objective. *)

module Difflp = Rar_flow.Difflp
module Stage = Rar_retime.Stage
module Outcome = Rar_retime.Outcome
module Error = Rar_retime.Error

type variant =
  | Nvl  (** seed every master in the detecting stage non-error-detecting *)
  | Evl  (** seed every master error-detecting *)
  | Rvl  (** seed by criticality: EDL on near-critical endpoints only *)

val variant_name : variant -> string
val all_variants : variant list

type t = {
  outcome : Outcome.t;       (** verified, with the variant's ED set *)
  stage : Stage.t;
  initial_ed : int list;     (** masters seeded error-detecting *)
  forced_to_ed : int list;   (** non-ED seeds the retimer could not honour
                                 (timing fix, always applied — [17]'s
                                 manual violation fixes) *)
  swapped_to_non_ed : int list;
      (** EDL masters relaxed by the optional post-retiming swap *)
  retype_rounds : int;       (** infeasibility retries during retiming *)
}

val run_on_stage :
  ?deadline:Rar_util.Deadline.t ->
  ?on_fallback:(Difflp.fallback_event -> unit) ->
  ?engine:Difflp.engine ->
  ?solve_cache:Difflp.cache ->
  ?post_swap:bool ->
  c:float ->
  variant ->
  Stage.t ->
  (t, Error.t) result
(** [post_swap] (default true) enables the §V post-retiming step that
    swaps unnecessary error-detecting masters back to normal latches;
    disabling it reproduces the paper's "-0.36%" RVL data point.
    [?deadline] is force-checked at the top of every retype round
    (phase ["vl-retype"]) besides being threaded into each LP solve;
    [?on_fallback] reports successful alternate-solver retries. *)
