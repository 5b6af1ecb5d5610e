(** Pre-retiming resynthesis (extension).

    The paper's introduction surveys resynthesis as the complementary
    overhead-reduction lever: "near-critical paths are sped-up by
    re-running logic synthesis with a tighter max delay constraint to
    reduce the EDL needed at the cost of increased logic area"
    [12, 17]. This module implements the two classic local rewrites
    that matter on our netlists:

    - {b redundant pair removal} — [buf] nodes and [inv∘inv] chains are
      short-circuited (pure area/delay win);
    - {b timing-driven decomposition} — associative gates wider than
      two inputs are rebuilt as Huffman trees over their input
      arrivals (earliest inputs deepest), so late-arriving pins see a
      single gate delay instead of a wide slow cell. Inverting kinds
      keep one inverting root over a non-inverting tree.

    Both rewrites preserve the boolean function of every primary
    output and sequential element (tested by simulation). Running
    retiming after {!optimize} is this repo's stand-in for the
    "resynthesis then retiming" flows the paper compares against. *)

module Netlist = Rar_netlist.Netlist
module Liberty = Rar_liberty.Liberty

type stats = {
  bufs_removed : int;
  inv_pairs_removed : int;
  gates_decomposed : int;
  gates_added : int;    (** tree internals created *)
}

val optimize : lib:Liberty.t -> Netlist.t -> Netlist.t * stats
(** Decomposition is full: wide gates become trees of two-input gates.
    The library supplies the arrival-time ordering via a path-based STA
    of the netlist's combinational view. *)
