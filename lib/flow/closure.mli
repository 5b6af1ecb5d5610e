(** Maximum-weight closure (project selection) by min-cut.

    The binary specialisation of the retiming LP (DESIGN.md §5): with
    retiming values restricted to [{-1, 0}], picking the set
    [Y = { v | r(v) = -1 }] under monotone implication constraints is a
    max-profit closure problem, solved exactly by one max-flow. It is
    {!Difflp.solve}'s default engine whenever the LP's bounds confine
    every variable to that window. *)

type instance = {
  n : int;
  profit : float array;
    (** profit of selecting node [v]; objective is
        [maximise sum over selected] *)
  m : int;  (** constraints: entries [0 .. m - 1] of [u], [v], [bound] *)
  u : int array;
  v : int array;
  bound : int array;
    (** [r(u.(i)) - r(v.(i)) <= bound.(i)], read with selection as
        [r = -1]: a bound of [1] or more is slack, [0] says selecting
        [v] requires selecting [u], and [-1] forces [u] selected and [v]
        rejected. The arrays may be longer than [m] (a growable store
        is read in place). *)
  reference : int;  (** the node pinned to [r = 0]: always rejected *)
}

type outcome = {
  selected : bool array;
      (** the residual source side of the max flow: the unique
          {e minimal} optimal closure, whatever max-flow algorithm ran *)
  best_profit : float;  (** total profit of the selected set *)
  certificate : (unit, string) result;
      (** {!Maxflow.certify} on the solved network: a feasible flow
          whose value equals the capacity of the returned cut *)
}

val solve :
  ?deadline:Rar_util.Deadline.t -> instance -> (outcome, string) result
(** Errors when a bound is below [-1] (outside the binary window) or
    when a node is both forced selected and rejected (directly or
    through implications). The network is sized from the instance
    before any edge is added: profit edges first, then the
    implications, the forced selections and the forced rejections,
    each in reverse constraint order, and the reference's rejection
    last. [?deadline] is sampled in the max-flow loops; expiry raises
    [Rar_util.Deadline.Expired]. *)
