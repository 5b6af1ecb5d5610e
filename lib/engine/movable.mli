(** Movable-master extension of VL retiming (paper §VI-E, Table IX).

    The VL flow can release the "do-not-retime" constraint on master
    latches. We model that extra freedom as a bounded local search on
    the two-phase netlist: a master (with its slave) may retime
    backward across a single-input driver whose only fanout it is —
    the move a commercial retimer performs without duplicating
    registers or disturbing initial state encodings beyond what the
    paper accepts. Each candidate move is evaluated by re-running the
    fixed-master RVL flow on the perturbed circuit and kept only if the
    verified total area improves.

    The paper's finding — that this flexibility yields little to no
    average gain — is what this bounded search reproduces; DESIGN.md
    records the restriction. *)

val run :
  deadline:Rar_util.Deadline.t option ->
  solve:Lp_tail.solve ->
  max_moves:int ->
  c:float ->
  Rar_retime.Stage.t ->
  Lp_tail.run
(** The fixed-master RVL run on the given stage, then at most
    [max_moves] candidate moves, each rebuilt from the stage's
    {!Rar_retime.Stage.source} with its library, clocking and delay
    model. Fails with [Invalid_input] when the stage carries no source.
    [deadline] is force-checked before every candidate move (phase
    ["movable-search"]). Returns the best design found, with [Moves]
    extras recording the fixed-master area. *)
