(** The deadline check that stands where the paper's post-retiming
    size-only incremental compile runs (§VI-B).

    That compile exists to bring every sink within its deadline after
    retiming. Here each deadline is already a constraint of the LP,
    built from the same analysis that times the result: no slave on an
    illegal pin (Constraint 7), every slave able to launch
    (Constraint 6), and, for a sink that must meet the period, G-RAR's
    [g(t)] cut (Eq. 8–9) or the virtual library's forbidden window
    pins. A legal decoded placement therefore meets them, and nothing
    is left to size: the pass times the placement with one latch-aware
    sweep ({!Stage.latched_arrivals}) and rejects it if any sink is
    late. It never edits the netlist and never re-analyses the
    stage. *)

module Transform = Rar_netlist.Transform

val check :
  approach:string ->
  deadlines:(int -> float) ->
  Stage.t ->
  Transform.placement list ->
  (float array, Error.t) result
(** [check ~approach ~deadlines stage placements] returns the
    placement's verified arrivals on [stage] (per node; the sweep
    {!Outcome.account} takes), or [Timing_violations { approach; count }]
    when [count > 0] sinks arrive later than [deadlines sink] by more
    than {!Rar_sta.Clocking.tolerance}. Runs under a [sizing/fix] trace
    span. Raises [Invalid_argument] on a placement
    {!Transform.pin_index} rejects. *)

val fix :
  deadlines:(int -> float) ->
  Stage.t ->
  Transform.placement list ->
  (Stage.t, Error.t) result
(** {!check} labelled ["Sizing.fix"], returning the input stage itself
    when every deadline is met. *)
