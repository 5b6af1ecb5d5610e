(** Binary min-heap of int payloads (node ids, event codes) keyed by
    floats, used by the event-driven simulator. Duplicates are
    allowed.

    Equal priorities pop in an order fixed by the push order alone
    (sift-up moves an entry above its parent only when strictly
    smaller; sift-down prefers the left child over an equal right one),
    so the simulator's event order is deterministic. Priorities and
    payloads live in two flat arrays, so once they have grown {!add}
    allocates nothing. *)

type t

val create : unit -> t
val add : t -> float -> int -> unit

val pop_min : t -> (float * int) option
