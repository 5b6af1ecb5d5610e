(** Retiming outcomes: verified timing, error-detecting assignment and
    area accounting shared by every engine (G-RAR, base retiming, the
    virtual-library variants).

    The assembly step plays the role of the paper's post-retiming
    checks: it recomputes true capture arrivals for the physical slave
    placement and derives which masters actually need error detection,
    so reported areas are always consistent with timing even where the
    [g(t)] graph model was approximate. *)

module Transform = Rar_netlist.Transform
module Liberty = Rar_liberty.Liberty

type t = {
  placements : Transform.placement list;
  n_slaves : int;
  n_masters : int;           (** = number of capture points (sinks) *)
  ed_sinks : int list;       (** masters carrying error-detecting latches *)
  violations : int list;     (** sinks whose arrival exceeds [max_delay]
                                 (see {!account}); the LP tail rejects a
                                 retiming that would have any, so only
                                 the un-retimed design reports some *)
  arrivals : (int * float) array;  (** per sink *)
  edl_overhead : float;      (** the [c] used for the area model *)
  seq_area : float;          (** slaves + masters + EDL overhead *)
  comb_area : float;
  total_area : float;
}

val assemble :
  ?ed:int list -> c:float -> Stage.t -> Transform.placement list -> t
(** Verify a placement on a stage and account its area: one
    latch-aware sweep ({!Stage.latched_arrivals} of the placement's
    {!Transform.pin_index}), then {!account}. *)

val account :
  ?ed:int list ->
  c:float ->
  Stage.t ->
  Transform.placement list ->
  float array ->
  t
(** [account ?ed ~c stage placements arr]: the ED and area accounting
    of {!assemble} on an arrival pass already run — [arr] must be
    {!Stage.latched_arrivals} of [stage] under [placements] (per node;
    only sinks are read), as {!Sizing.check} returns it. [ed]
    overrides the error-detecting set (used by the virtual-library
    engine, which re-types its masters from the same pass); by default
    it is derived from the verified arrivals: a master is
    error-detecting iff its arrival exceeds the period. Masters whose
    arrival exceeds the period but that are not in an overridden [ed]
    set are reported in [violations] as well — they would silently
    corrupt data. Runs under an [outcome/assemble] trace span. *)

val of_initial : c:float -> Stage.t -> t
(** The un-retimed two-phase design ({!Transform.initial_placements}),
    accounted on its {!Stage.initial_arrivals}. *)

val ed_count : t -> int
