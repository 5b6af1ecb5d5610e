(** Size-only incremental fix (the paper's post-retiming "incremental
    compile in which we allow only sizing of gates", §VI-B).

    Given a stage, a slave placement and per-sink deadlines, upsizes
    the most critical gates in violating cones until every deadline is
    met, the drives saturate, or the round budget runs out. Node ids
    and pin positions are stable across sizing, so the placement's one
    {!Transform.pin_index} serves every round, and each round times
    the stage with one latch-aware sweep
    ({!Stage.latched_arrivals}). *)

module Transform = Rar_netlist.Transform

val fix :
  deadlines:(int -> float) ->
  Stage.t ->
  Transform.placement list ->
  (Stage.t, Error.t) result
(** Returns a stage over the (possibly) resized netlist — the input
    stage unchanged when nothing violates. [deadlines sink] is the
    latest acceptable verified arrival. Sizing stops after 12 rounds.
    Unfixable violations are {e not} an error: the caller decides
    (G-RAR flips the master to error-detecting; base retiming reports
    it). Errors only reflect internal re-analysis failures. Raises
    [Invalid_argument] on a placement {!Transform.pin_index} rejects. *)

val fix_timed :
  deadlines:(int -> float) ->
  Stage.t ->
  Transform.placement list ->
  (Stage.t * float array, Error.t) result
(** {!fix}, also returning the returned stage's verified arrivals
    under the placement ({!Stage.latched_arrivals}), which the round
    that chose it already computed — {!Outcome.account} takes them
    without a second sweep. Runs under a [sizing/fix] trace span, as
    {!fix} does. *)
