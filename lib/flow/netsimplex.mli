(** Network simplex for uncapacitated min-cost transshipment.

    The solver the paper uses (via Gurobi) for Eq. 14. Maintains a
    spanning-tree basis rooted at an artificial node whose big-M arcs
    absorb infeasibility; pivots exchange a negative-reduced-cost
    non-tree arc against the cycle arc that bounds the flow change.
    Integer costs give integer node potentials, which are exactly the
    retiming values (up to sign and normalisation).

    Entering-arc selection uses block pricing: arcs are partitioned
    into rotating blocks, a pivot scans only the current block for the
    most-negative reduced cost (lowest arc index on ties), and only a
    dry block triggers a sequential full sweep under the same rule, so
    the pivot sequence (and hence the returned basis) is a pure
    function of the input. A generous pivot cap guards against (never
    yet observed) cycling, and {!Difflp} falls back to {!Ssp} if the
    cap is hit. *)

type solution = {
  flow : float array;      (** per problem arc id *)
  potentials : int array;  (** [r(v) = -potentials(v)] solves the primal *)
  objective : float;
  pivots : int;            (** pivot count, for the ablation bench *)
}

type error =
  | Unbalanced        (** total demand is not zero: the instance is malformed *)
  | Unbounded         (** negative cycle: the objective is unbounded below *)
  | Infeasible        (** artificial arcs kept flow: demands cannot be routed *)
  | Pivot_limit of int (** the cap that was exceeded; retryable elsewhere *)

val error_to_string : error -> string

type pricing =
  | Dantzig  (** full most-negative sweep every pivot (reference rule) *)
  | Block    (** rotating-block candidate scan, full sweep when dry (default) *)

val solve :
  ?deadline:Rar_util.Deadline.t ->
  ?max_pivots:int ->
  ?pricing:pricing ->
  Problem.t ->
  (solution, error) result
(** [max_pivots] defaults to [200 * max 64 (arc count)].
    [Unbalanced]/[Infeasible]/[Unbounded] are definitive statements
    about the instance; [Pivot_limit] is the one failure another
    engine (or a higher cap) could still get past. [?deadline] is
    checked cooperatively once per pivot (phase ["netsimplex"]);
    expiry raises [Rar_util.Deadline.Expired]. *)
