(** Size-only incremental fix (the paper's post-retiming "incremental
    compile in which we allow only sizing of gates", §VI-B).

    Given a stage, a slave placement and per-sink deadlines, upsizes
    the most critical gates in violating cones until every deadline is
    met, the drives saturate, or the round budget runs out. Node ids
    are stable across sizing, so placements remain valid. *)

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
    it). Errors only reflect internal re-analysis failures. *)

val violating :
  deadlines:(int -> float) -> Stage.t -> Transform.placement list -> int list
(** Sinks whose verified arrival under the placement exceeds their
    deadline. *)
