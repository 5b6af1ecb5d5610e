(** Edge-triggered → latch-based conversion front end.

    Decomposes each D flip-flop of a netlist into a master/slave latch
    pair — master on phase 1 (transparent low, the error-detecting
    site), slave on phase 2 (transparent high) — following the UCSC
    single-phase→two-phase conversion flow; with the three-phase scheme
    (after Cheng/Gu/Beerel's FF→3-phase latch conversion) each flop
    gains a further phase-3 latch, and the matching
    {!Rar_sta.Clocking.Three_phase} clocking carries its own
    resiliency-window rule through STA and stage classification.

    Determinism contract: the output is a pure function of the input
    netlist. Nodes are visited in id order and recreated with their
    original names (latches suffixed [$m]/[$s]/[$t]), so output ids,
    names and pin positions never depend on job count, hash order or
    environment — byte-identical emission across [--jobs] settings is a
    CI-gated invariant. Combinational structure is preserved exactly,
    so the result drops into [Transform.extract_comb] and [Stage.make]
    unmodified. *)

type phases = Two | Three

val to_int : phases -> int
val phases_of_int : int -> (phases, string) result

type stats = {
  flops : int;    (** flip-flops decomposed *)
  masters : int;  (** phase-1 latches created (one per flop) *)
  slaves : int;   (** later-phase latches created (1 or 2 per flop) *)
  gates : int;    (** combinational gates carried over untouched *)
  scheme : phases;
}

val pp_stats : Format.formatter -> stats -> unit

val split : phases -> Netlist.t -> Netlist.t
(** The FF→latch split itself, the only one in the code base: each
    [Seq Flop] [x] becomes the chain [x$m] (master) → [x$s] (slave)
    [→ x$t] (slave, three-phase only), whose last latch the flop's
    readers are rewired to. Every other node — latches already present
    included — is copied unchanged, so a netlist without flops comes
    back structurally identical. Raises [Failure] when the result does
    not freeze (a generated name colliding with an existing one).
    [Suite.prepare] calls it directly. *)

val run : ?phases:phases -> Netlist.t -> (Netlist.t * stats, string) result
(** The guarded front end of {!split}: convert an edge-triggered
    design and count what changed. [phases] defaults to [Two]. Errors
    when the input already contains master/slave latches (a converted
    or hand-written latch design must not be converted twice) or when
    {!split} fails; a flop-free netlist converts to itself with zero
    latch counts. *)
