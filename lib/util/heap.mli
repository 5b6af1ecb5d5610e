(** Binary min-heap of int payloads (node ids, event codes) keyed by
    floats, used by the event-driven simulator. Duplicates are
    allowed.

    Equal priorities pop in an order fixed by the push order alone
    (sift-up moves an entry above its parent only when strictly
    smaller; sift-down prefers the left child over an equal right one),
    so the simulator's event order is deterministic. Priorities and
    payloads live in two flat arrays, so once they have grown {!add}
    allocates nothing, and neither does reading the minimum or
    {!remove_min}. *)

type t = private {
  mutable prio : float array;
  mutable items : int array;
  mutable size : int;
}
(** The heap's own arrays, read-only outside this module: [size]
    entries, the minimum at index 0 of [prio] (its priority) and
    [items] (its payload) when [size > 0]. A loop reads the top in
    place, so no option, tuple or boxed float is made per entry (dev
    builds compile with [-opaque], so nothing is inlined across
    modules). *)

val create : unit -> t
val add : t -> float -> int -> unit

val remove_min : t -> unit
(** Drop the minimum entry. Raises [Invalid_argument] on an empty
    heap. *)
