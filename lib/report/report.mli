(** Experiment drivers: one function per table of the paper's
    evaluation (§VI), built on the unified {!Rar_engine} registry. All
    engine runs are memoised per context keyed by the full engine
    config, so rendering every table costs one pass over the benchmark
    suite; each table is built once as typed {!Row.table} rows and
    rendered from those rows into text, CSV or JSON.

    A context is a plain memo that fills as the tables render and
    belongs to one domain: do not share it between domains.

    Overheads follow §VI-A: low [c = 0.5], medium [c = 1.0], high
    [c = 2.0]. *)

module Suite = Rar_circuits.Suite
module Stage = Rar_retime.Stage
module Outcome = Rar_retime.Outcome
module Error = Rar_retime.Error
module Engine = Rar_engine
module Sta = Rar_sta.Sta

val overheads : (string * float) list
(** [("low", 0.5); ("medium", 1.0); ("high", 2.0)]. *)

type format = Text | Csv | Json

exception Engine_failed of { what : string; err : Error.t }
(** Raised by the raising accessors below when a cached cell cannot be
    computed; {!rows} and {!table} catch it and return a one-line
    diagnostic instead. *)

type t

val create :
  ?names:string list ->
  ?sim_cycles:int ->
  ?solver:Rar_flow.Difflp.engine ->
  unit ->
  t
(** [names] defaults to the full Table I suite (12 circuits);
    [sim_cycles] (default 300) drives Table VIII; Table IX's local
    search tries at most 4 candidate moves; [solver] pins every engine
    run's LP solver (default: each LP's
    {!Rar_flow.Difflp.default_engine}).

    @raise Invalid_argument if [sim_cycles < 1]. *)

val names : t -> string list

(** {1 Cached engine access} (also used by the examples and benches) *)

val prepared : t -> string -> Suite.prepared
val stage : t -> ?model:Sta.model -> string -> Stage.t
(** Stage with the two-phase source netlist attached (so the movable
    engine can run on it). *)

val config : t -> ?model:Sta.model -> c:float -> Engine.spec -> Engine.config
(** The context's engine config: the given model (default path-based),
    the context's solver, post-swap on, the context's movable move budget. *)

val run_result :
  t ->
  ?model:Sta.model ->
  string ->
  spec:Engine.spec ->
  c:float ->
  (Engine.result, Error.t) result
(** Memoised {!Engine.run} on the named benchmark, keyed by circuit
    and full config. Failures are not cached. *)

val run :
  t -> ?model:Sta.model -> string -> spec:Engine.spec -> c:float ->
  Engine.result
(** Like {!run_result} but raises {!Engine_failed}. *)

val sim_design : Stage.t -> Outcome.t -> Rar_sim.Sim.design
(** The simulatable retimed design: the outcome's slave placements
    realised in the stage's netlist ({!Rar_netlist.Transform.apply_retiming}),
    its error-detecting masters mapped onto that netlist, under the
    stage's library and clocking. Pass an engine result's own stage
    (the movable engine's is its moved stage). *)

val error_rate :
  t -> string -> spec:Engine.spec -> c:float -> Rar_sim.Sim.rate
(** Error-rate simulation ({!Rar_sim.Sim.error_rate}, the context's
    [sim_cycles]) of the engine's verified design, seeded by circuit
    and engine name, so results are stable.

    Memoised twice. The cell key (circuit, engine, c) is the hit path.
    On a miss the cell's design is realised ({!sim_design}) and looked
    up by everything the simulation reads: the seed,
    {!Rar_netlist.Netlist.digest} of the staged netlist, the sorted
    error-detecting sinks and the clocking (the library and the cycle
    count are fixed per context). The seed ignores c, so an engine that
    returns the same design at every c is simulated once for all three
    cells. *)

(** {1 Tables} *)

val rows : t -> int -> (Row.table, string) result
(** Typed rows of table [n] (memoised). [Error] carries a one-line
    diagnostic: unknown table number, or the first engine cell that
    failed (with its typed error rendered). *)

val table : t -> ?format:format -> int -> (string, string) result
(** Table by number, 1-9, rendered from {!rows} in the requested
    format (default text). *)

val all_tables : ?format:format -> t -> (int * string * string) list
(** [(number, title, rendered)] for Tables 1-9 in order. Each cell is
    computed the first time a table needs it. A failed table renders as
    its diagnostic line, or in JSON as an object holding its [number],
    [title] and [error]. *)

val title : int -> string
