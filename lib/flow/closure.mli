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
  implications : (int * int) list;
    (** [(v, u)]: selecting [v] requires selecting [u] *)
  must_select : int list;
  must_reject : int list;
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
(** Errors when a node is both forced selected and rejected (directly
    or through implications). [?deadline] is sampled in the max-flow
    loops; expiry raises [Rar_util.Deadline.Expired]. *)
