(** Cooperative deadline / cancellation token.

    A token carries a wall-clock budget measured on the monotonized
    clock ({!Clock.monotonic_s}). Long-running kernels thread a token
    down to their inner loops and call {!check} there; once the budget
    is exhausted the next check raises {!Expired}, which the engine
    layer converts into the typed [Error.Timeout]. Cancellation is
    purely cooperative — nothing is interrupted between checks, so a
    computation terminates within [budget + one check interval] (one
    pivot, one queue pop, one augmentation, …).

    {!check} only samples the clock every {!stride} calls (an internal
    countdown), so it is cheap enough for per-iteration use in solver
    inner loops; {!force_check} samples unconditionally and suits
    coarse-grained loops (a retype round, a candidate move). Tokens may
    be shared across domains: the countdown is racy by design, which at
    worst delays one sample by a stride. *)

type t

exception Expired of { elapsed : float; phase : string }
(** Raised by a check once the budget is exhausted. [phase] names the
    loop that noticed (["netsimplex"], ["maxflow"], ["vl-retype"],
    ["movable-search"], …); [elapsed] is the wall time since
    {!make}. *)

val make : budget_s:float -> t
(** Start the budget now. A zero budget expires at the first check; an
    [infinity] budget never expires on its own and exists purely as a
    carrier of check sites for {!request_cancel} and the
    {!set_on_sample} resource guards.
    @raise Invalid_argument on a negative (or NaN) budget. *)

val set_on_sample : t -> (phase:string -> unit) -> unit
(** Install a hook run at every clock sample — the same stride-256
    sites as the budget test, after the cancellation test and before
    the expiry test. The hook may raise (the serve layer's heap guard
    raises its ceiling error from here); whatever it raises propagates
    out of the check exactly like {!Expired}. *)

(** {1 Cooperative cancellation}

    {!request_cancel} sets a process-wide flag that every token
    notices: the CLI's SIGINT/SIGTERM handlers, which may only set a
    flag, park the signal name here (so do [rar serve]'s, which also
    stop request intake; its [shutdown] verb and end of input drain
    without cancelling). The next strided sample of every live token
    then raises {!Expired} with [phase = "cancel:<reason>"], so a
    cancelled run unwinds through the same typed-error path as a
    budget overrun and [at_exit] work (trace export) still runs. *)

val arm_cancel : unit -> unit
(** Declare that a cancellation source exists (signal handlers were
    installed). [Rar_engine] threads an [infinity]-budget token
    through runs that were given no explicit deadline whenever this is
    armed, so cancellation has check sites to fire from. *)

val cancel_armed : unit -> bool

val request_cancel : reason:string -> unit
(** Process-wide cancel: every live token's next sample raises.
    Async-signal-safe (one atomic store). *)

val cancel_pending : unit -> string option
val clear_cancel : unit -> unit
(** Reset the process-wide flag (the tests, after a
    {!request_cancel}). *)

val check : t -> phase:string -> unit
(** Strided check for inner loops: decrements the countdown and, every
    {!stride} calls, samples the clock and raises {!Expired} if the
    budget is spent. *)

val force_check : t -> phase:string -> unit
(** Sample the clock unconditionally; raise {!Expired} if spent or if
    a cancel is pending. *)

val stride : int
(** Number of {!check} calls between clock samples (256). *)
