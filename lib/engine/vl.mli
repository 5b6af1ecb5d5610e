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

module Stage = Rar_retime.Stage

type variant =
  | Nvl  (** seed every master in the detecting stage non-error-detecting *)
  | Evl  (** seed every master error-detecting *)
  | Rvl  (** seed by criticality: EDL on near-critical endpoints only *)

val label : variant -> string
(** ["NVL"], ["EVL"], ["RVL"]. *)

val run :
  deadline:Rar_util.Deadline.t option ->
  solve:Lp_tail.solve ->
  post_swap:bool ->
  c:float ->
  variant ->
  Stage.t ->
  Lp_tail.run
(** Seed the master types, then retime under the typed setup
    constraints, flipping the non-ED master with the longest path to
    error-detecting whenever the LP is infeasible. [deadline] is
    force-checked at the top of every retype round (phase
    ["vl-retype"]). The round that solves ends in {!Lp_tail.finish}:
    typed-ED sinks are size-fixed to the max-delay bound, the rest to
    the period; non-ED masters still inside the window are forced
    error-detecting ([17]'s manual violation fixes), and with
    [post_swap] error-detecting masters that meet the period go back
    to normal latches (§V; off reproduces the paper's "-0.36%" RVL
    data point). Extras: [Retype]. *)
