(** Difference-constraint linear programs with integral optima — the
    form every retiming problem in this project takes (paper Eq. 10):

    minimise  [sum a(v) * r(v)]
    subject to [r(u) - r(v) <= bound]  for each constraint,

    with integer bounds. The objective coefficients must sum to zero
    (retiming objectives always do: each latch-cost breadth appears
    once positively and once negatively) — the LP is shift-invariant
    and solutions are normalised to [r(reference) = 0].

    Three exact engines (DESIGN.md §5): a max-flow closure reduction
    (the default whenever every variable is confined to [{-1, 0}], as
    in every retiming LP here), the paper's network simplex (the
    reference, and the default otherwise) and successive shortest paths
    on the same flow dual. A brute-force enumerator backs property
    tests. *)

type t

val create : n:int -> t
val var_count : t -> int

val add_constraint : t -> u:int -> v:int -> bound:int -> unit
(** [r(u) - r(v) <= bound]. *)

val add_objective : t -> int -> float -> unit
(** Accumulate a coefficient onto variable [v]. *)

val iter_constraints : t -> (u:int -> v:int -> bound:int -> unit) -> unit
(** In emission order. *)

val constraint_count : t -> int
(** Constraints kept so far. [add_constraint] drops only a trivially
    true [u = v] constraint, so every other call adds one. *)

val slack : t -> int array -> int -> int
(** [slack t r i] is [bound - (r(u) - r(v))] of the [i]-th constraint
    in emission order; [Invalid_argument] unless
    [0 <= i < constraint_count t]. *)

type engine = Network_simplex | Ssp | Closure

val engine_name : engine -> string
val all_engines : engine list

type fallback_event = { failed : engine; retried : engine; reason : string }
(** A primary flow solve failed (solver error, expired-free timeout
    injection, or certificate rejection) and the alternate engine
    produced a certified solution instead. Reported through
    [?on_fallback] only when the retry {e succeeds}; a doubly-failed
    solve reports a combined [Error] instead. *)

type cache
(** A solve cache for ECO sessions: maps complete LP instances
    (variables, constraints in emission order, objective, reference,
    engine) to their solutions. The key is one compact byte string of
    the whole instance, and a hit compares that string in full — never
    just a hash — so collisions cannot produce wrong answers; and
    because every engine is deterministic, replaying a stored solution
    is byte-identical to re-solving. Thread-safe. *)

val create_cache : unit -> cache

val default_engine : t -> reference:int -> engine
(** The engine {!solve} runs when given none, chosen by one linear
    scan: [Closure] when no bound is below [-1] and every variable
    [x <> reference] has both [x - reference <= b] for some [b <= 0]
    and [reference - x <= b] for some [b <= 1] — so every feasible
    normalised solution lies in [{-1, 0}] — else [Network_simplex]. *)

val solve :
  ?deadline:Rar_util.Deadline.t ->
  ?on_fallback:(fallback_event -> unit) ->
  ?engine:engine ->
  ?cache:cache -> t -> reference:int -> (int array, string) result
(** Optimal [r] with [r(reference) = 0]. An explicit [?engine] is
    always honoured; without one the engine is {!default_engine}. The
    [Closure] engine requires that every feasible normalised solution
    lies in [{-1, 0}] — the caller's bound constraints must enforce
    this, as retiming's region bounds do — and returns the minimal
    optimal set of [r = -1] variables (the residual source side of the
    max flow), which does not depend on the max-flow algorithm.

    Every accepted solution is checked against its engine's
    certificate: LP duality
    ({!Certificate.is_optimal}) for the flow engines, a feasible flow
    whose value equals the returned cut's capacity
    ({!Maxflow.certify}) for closure. On a retryable solver error or a
    certificate failure the alternate engine is tried before an error
    is reported ([Network_simplex] -> [Ssp], [Ssp] and [Closure] ->
    [Network_simplex]), and a successful retry is announced via
    [?on_fallback]. Fault injection ({!Rar_resilience.Faults}) only
    perturbs the first attempt. [?deadline] is threaded into every
    solver and expiry raises [Rar_util.Deadline.Expired] (it is {e not}
    caught by the fallback chain — a budget overrun aborts the whole
    solve). The objective must be balanced for every engine.

    With [?cache], an instance identical to a previously solved one
    (same resolved engine) returns the stored solution without running
    a solver (no pivots, no fault injection, no fallback events —
    counted in the [difflp_cache_hits] metric); only successful solves
    are stored. *)

val solve_brute :
  t -> lo:int -> hi:int -> reference:int -> (int array * float) option
(** Exhaustive search over [r(v) in [lo, hi]] with [r(reference) = 0];
    [None] when infeasible. Exponential — property tests only. *)

val to_lp_format : t -> name:(int -> string) -> string
(** Render the LP in CPLEX "LP file" syntax (minimise, subject-to,
    bounds free), so an instance can be cross-checked with an external
    solver — the paper solved the same formulation with Gurobi.
    [name] supplies variable names. *)

val check : t -> int array -> (unit, string) result
(** Verify every constraint against a candidate solution. *)

val objective_value : t -> int array -> float
