(** The unified engine layer: every retiming approach in the repo —
    the un-retimed two-phase baseline, base (resilience-blind)
    retiming, the virtual-library variants, the movable-master search
    and G-RAR — behind one typed entry point. The engines themselves
    are private to this library: {!run} is the only way to run one.

    A {!spec} names an engine; a {!config} fixes everything that can
    change a result (engine, STA model, flow solver, EDL overhead [c],
    VL post-swap, movable move budget); {!run} takes a prepared
    {!Stage.t} and returns a {!result} carrying the shared verified
    {!Outcome.t}, per-engine {!extras} and the wall-clock time, or a
    typed {!Error.t}. The registry ({!all}, {!tabulated}, {!of_name})
    is what the CLI and the report tables iterate, so adding an engine
    here extends both. *)

module Netlist = Rar_netlist.Netlist
module Transform = Rar_netlist.Transform
module Liberty = Rar_liberty.Liberty
module Sta = Rar_sta.Sta
module Clocking = Rar_sta.Clocking
module Difflp = Rar_flow.Difflp
module Stage = Rar_retime.Stage
module Outcome = Rar_retime.Outcome
module Error = Rar_retime.Error
module Suite = Rar_circuits.Suite
module Json = Rar_util.Json

(** How a virtual-library run seeds its master types (§V). *)
type vl = Vl.variant =
  | Nvl  (** every master in the detecting stage non-error-detecting *)
  | Evl  (** every master error-detecting *)
  | Rvl  (** by criticality: EDL on near-critical endpoints only *)

type spec =
  | Initial  (** un-retimed two-phase design (slaves at the sources) *)
  | Base  (** resilience-blind min-area retiming (§VI-C "base") *)
  | Grar  (** the paper's G-RAR min-cost-flow formulation *)
  | Vl of vl  (** virtual-library flow: NVL / EVL / RVL *)
  | Movable  (** RVL plus the bounded movable-master search (§VI-E) *)

type config = {
  spec : spec;
  model : Sta.model;  (** STA model for stage analysis *)
  solver : Difflp.engine option;  (** [None] = each engine's default *)
  c : float;  (** EDL area overhead *)
  post_swap : bool;  (** VL post-retiming latch-type swap (§V) *)
  movable_moves : int;  (** move budget for the movable-master search *)
}

(** What an engine reports beyond the shared outcome. *)
type extras = Lp_tail.extras =
  | No_extras  (** [Initial] *)
  | Retiming of {
      r : int array;  (** retiming values per graph vertex *)
      lp_latches : float;  (** modelled (LP) latch count *)
      modelled_non_ed : int list;
          (** sinks the model priced as non-error-detecting (G-RAR) *)
    }  (** [Base] and [Grar] *)
  | Retype of {
      initial_ed : int list;  (** masters seeded error-detecting *)
      forced_to_ed : int list;
          (** non-ED seeds the retimer could not honour ([17]'s manual
              violation fixes); always empty, because the LP tail
              rejects a non-ED master past the period instead *)
      swapped_to_non_ed : int list;
          (** EDL masters relaxed by the optional post-retiming swap *)
      retype_rounds : int;  (** infeasibility retries during retiming *)
    }  (** [Vl _] *)
  | Moves of {
      moves_tried : int;
      moves_kept : int;
      fixed_total_area : float;  (** verified area before any master moved *)
    }  (** [Movable] *)

type result = {
  spec : spec;
  outcome : Outcome.t;  (** verified placement, ED set, areas *)
  stage : Stage.t;
      (** stage the outcome was verified on: the stage the run was
          given, or the moved stage for [Movable] *)
  extras : extras;
  events : Difflp.fallback_event list;
      (** solver-fallback events, chronological; empty on a clean run *)
  wall_s : float;
}

(** {1 Registry} *)

val all : spec list
(** Every engine, cheapest first:
    [Initial; Base; Vl Nvl; Vl Evl; Vl Rvl; Movable; Grar]. *)

val tabulated : spec list
(** The engines the paper's comparison tables (IV–VIII) column over:
    [Base; Vl Rvl; Grar]. The head is the baseline other columns are
    normalised against. *)

val name : spec -> string
(** Stable lowercase identifier: ["initial"], ["base"], ["nvl"],
    ["evl"], ["rvl"], ["movable"], ["grar"]. Used for CLI [--approach],
    JSON and simulation seeds. *)

val label : spec -> string
(** Short table-heading label: ["Init"], ["Base"], ["NVL"], ["EVL"],
    ["RVL"], ["Mov"], ["G"]. *)

val describe : spec -> string
(** One-line human description. *)

val of_name : string -> spec option
(** Inverse of {!name}, case-insensitive. *)

(** {1 Configuration} *)

val config :
  ?model:Sta.model ->
  ?solver:Difflp.engine ->
  ?c:float ->
  ?post_swap:bool ->
  ?movable_moves:int ->
  spec ->
  config
(** Defaults: path-based STA, each engine's default solver, [c = 1.0],
    post-swap on, 6 movable moves. The CLI flags and the serve
    protocol take their defaults from here. *)

val config_key : config -> string
(** Deterministic key covering every field exactly (two configs share
    a key only when they are equal) — safe for memoisation. *)

(** {2 Config names}

    The one spelling table for STA models and flow solvers, shared by
    the CLI flags, the serve protocol, JSON output and cache keys. *)

val model_name : Sta.model -> string
(** ["path"] or ["gate"]. *)

val model_of_name : string -> (Sta.model, string) Stdlib.result
(** Inverse of {!model_name}; anything else is
    [unknown model "..." (path|gate)]. *)

val solver_name : Difflp.engine option -> string
(** ["auto"] (no pinned engine: {!Difflp.default_engine}), ["ns"] or
    ["closure"]. *)

val solver_of_name : string -> (Difflp.engine option, string) Stdlib.result
(** Inverse of {!solver_name}, also accepting ["network-simplex"] for
    ["ns"]; anything else is [unknown solver "..."]. *)

val config_json : config -> Json.t

(** {1 Running} *)

val run :
  ?deadline:Rar_util.Deadline.t ->
  ?solve_cache:Difflp.cache ->
  config -> Stage.t -> (result, Error.t) Stdlib.result
(** Run the configured engine on a prepared stage. A [c] that is
    negative or not finite fails with [Invalid_input], the rule a
    [Set_c] edit already obeys. The [Movable]
    engine runs fixed-master RVL on the stage, then rebuilds each
    candidate move from the full two-phase netlist, so its stage must
    carry a {!Stage.source}; otherwise it fails with
    [Invalid_input].

    [Vl _] force-checks the deadline at each retype round (phase
    ["vl-retype"]) and [Movable] before each candidate move (phase
    ["movable-search"]); a sink past its deadline in the LP tail's
    check is [Timing_violations] labelled ["Base"], ["G-RAR"],
    ["NVL"], ["EVL"] or ["RVL"] (a movable run reports its RVL runs'
    label).

    [?deadline] bounds the run cooperatively: the solver inner loops
    check it and an overrun surfaces as [Error (Timeout _)] — the run
    terminates within the budget plus one check interval. Without an
    explicit deadline, a [deadline=<ms>] profile in [RAR_FAULTS] arms
    one. Certificate-failed or injected-faulty solves retry on the
    alternate flow solver; each successful retry is recorded in the
    result's [events]. An injected pool-task kill surfaces as
    [Error (Worker_crashed _)].

    [?solve_cache] replays previously solved identical LP instances
    without running a solver; a cache hit skips fault injection and
    produces no fallback events, but the returned solution is
    byte-identical. ECO sessions thread their cache here for VL runs
    only (see {!resolve}); the [Movable] engine never reads it. *)

val stage_of :
  ?model:Sta.model ->
  ?edits:Transform.Edit.applied ->
  Suite.prepared -> (Stage.t, Error.t) Stdlib.result
(** The stage analysis of a prepared benchmark, with its two-phase
    source attached (so every engine, [Movable] included, runs on
    it), under the same exception guard as {!run}. [model] defaults
    to path-based. With [?edits] it analyses the edited netlist and
    its cumulative delay annotations from scratch — the cold
    reference an ECO {!resolve} must match. *)

val run_prepared :
  ?deadline:Rar_util.Deadline.t ->
  config -> Suite.prepared -> (result, Error.t) Stdlib.result
(** {!stage_of} under the config's model, then {!run}. *)

val load_and_run :
  ?deadline:Rar_util.Deadline.t ->
  config -> string -> (result, Error.t) Stdlib.result
(** [load_and_run cfg name] loads the named benchmark and runs;
    unknown names yield [Unknown_circuit]. *)

(** {1 Minimum-period search} *)

(** Binary search over the period [P] — the classic other retiming
    objective (paper §II-C). With the paper's fixed clock split every
    timing bound scales with [P], so each probe is one base or G-RAR
    run at [c = 1] on a fresh stage. *)
module Period_search : sig
  type search = Period_search.search = {
    p : float;  (** found parameter *)
    iterations : int;
    lo : float;  (** final bracket *)
    hi : float;
  }

  val min_feasible :
    ?model:Sta.model ->
    lib:Liberty.t ->
    Transform.comb_circuit ->
    (search, Error.t) Stdlib.result
  (** The smallest [P] at which a legal slave retiming exists (base
      retiming succeeds), to a relative bracket width of 0.01. *)

  val min_detection_free :
    ?model:Sta.model ->
    lib:Liberty.t ->
    Transform.comb_circuit ->
    (search, Error.t) Stdlib.result
  (** The smallest [P] at which G-RAR leaves every master
      non-error-detecting. *)
end

(** {1 ECO sessions} *)

type session
(** Warm state for an edit-and-resolve loop: the incrementally patched
    stage analysis (which carries what its next patch reuses, see
    {!Stage.patch}), the current config (updated by [Set_c] edits), the
    last base or G-RAR LP solution with the {!Stage.lp_generation} and
    [c] it was solved at, and an LP solve cache for VL runs.
    Single-owner — a session must not be shared between domains (the
    Difflp cache it feeds is itself lock-guarded); two sessions may
    share the stage they were opened on. *)

val open_session : config -> Stage.t -> session
(** Open an ECO session over a prepared stage. Raises
    [Invalid_argument] for the [Movable] spec, which rebuilds the
    two-phase netlist per move and cannot resolve incrementally. *)

val session_config : session -> config
(** Current config ([c] reflects any applied [Set_c] edits). *)

val resolve :
  ?deadline:Rar_util.Deadline.t ->
  session ->
  Rar_netlist.Transform.Edit.t list -> (result, Error.t) Stdlib.result
(** Apply a batch of edits to the session netlist, repropagate timing
    through the edit cones only ({!Stage.patch}), and re-run the
    configured engine with the session's warm solver state.

    A base or G-RAR LP is a function of the stage's discrete data
    (graph, regions, illegal pins, sink classes and cut sets) and [c]
    alone. When the patched stage keeps the generation of the last
    solved one and [c] is unchanged, the LP is the one the session last
    solved, so its solution is used without building or solving it
    (counted in the [eco_solutions_reused] metric); decoding, the
    legality check, the deadline check and assembly still run on the
    patched stage.
    VL LPs also depend on timing (RVL's seeds, the retype order), so VL
    resolves replay identical LPs from the session's solve cache
    instead.

    The result is identical to a cold {!run} of the session config on
    the edited netlist — bitwise, except that [wall_s] differs and
    reused solutions and LP cache hits report no [events]. Ill-formed
    edits surface as [Error (Invalid_input _)]; on any error the
    session state is unchanged (the failed batch can be corrected and
    resubmitted). *)

(** {1 Structured output} *)

val result_json : ?circuit:string -> ?metrics:Json.t -> config -> result -> Json.t
(** ["rar-run/1"] schema: [schema], [approach], optional [circuit],
    [config], [outcome] (slave/master/ED counts, areas, violation and
    ED sink names, period), [extras], [solver_events] (present only
    when a solver fallback fired — each entry carries [failed],
    [retried], [reason]), an optional [metrics] object (present only
    when [?metrics] is passed — the CLI forwards
    [Rar_obs.Metrics.snapshot_json] under [--metrics]) and [wall_s].
    Without [?metrics] the document is unchanged from previous
    releases. *)
