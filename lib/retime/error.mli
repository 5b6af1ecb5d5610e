(** Typed failure modes of the retiming engines.

    Every public entry point in [lib/retime], [lib/vl] and the engine
    layer returns [('a, Error.t) result] — the variant replaces the
    stringly errors the early reproduction used, so callers (the CLI,
    the report memoiser, the serving layer) can branch on the failure
    kind instead of parsing messages. [to_string] renders the same
    one-line diagnostics the strings used to carry. *)

type t =
  | Unknown_circuit of string
      (** benchmark name not in the Table I suite *)
  | Illegal_stage of { node : string }
      (** the node violates both Constraint (6) and (7): no legal
          slave position exists on some path (paper §IV-B) *)
  | Untimeable_sink of { sink : string; limit : float }
      (** a capture point cannot meet [max_delay] before any slave is
          even placed *)
  | Infeasible_lp of { detail : string }
      (** the difference-constraint LP has no feasible point (or the
          flow solver rejected the instance) *)
  | Illegal_placement of { detail : string }
      (** a decoded placement breaks the one-slave-per-path invariant *)
  | Timing_violations of { approach : string; count : int }
      (** sinks whose verified arrival misses its deadline — the period
          for a master that must stay non-error-detecting, [max_delay]
          elsewhere — in the LP tail's check *)
  | Retype_diverged of { rounds : int }
      (** the virtual-library retyping loop failed to converge *)
  | Search_failed of { detail : string }
      (** period binary search found no feasible bracket *)
  | Invalid_input of string
      (** caller error: bad argument, unusable netlist, missing
          context (e.g. the movable engine without its source) *)
  | Timeout of { elapsed : float; phase : string }
      (** a cooperative deadline ({!Rar_util.Deadline}) expired;
          [phase] names the solver loop that noticed (["netsimplex"],
          ["maxflow"], ["vl-retype"], ["movable-search"]) *)
  | Worker_crashed of { detail : string }
      (** a parallel pool task died with an unexpected exception (or
          an injected [poolkill] fault) *)

val to_string : t -> string
(** One-line diagnostic, suitable for CLI [stderr]. *)

val kind : t -> string
(** Stable machine-readable tag (["unknown_circuit"],
    ["infeasible_lp"], …) used by the JSON renderings. *)
