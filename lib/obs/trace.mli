(** Structured span tracing ({b rar-trace/1}).

    Spans are Begin/End event pairs on the monotonized wall clock
    ({!Rar_util.Clock.monotonic_s}), recorded into per-domain buffers
    and merged deterministically — by (timestamp, domain, per-domain
    sequence number) — at export. Disarmed (the default), {!span} is a
    single atomic load and calls [f] directly: no allocation, no clock
    sample, no output perturbation, so the instrumentation stays in
    the solver kernels permanently (the bench smoke job bounds the
    armed cost at [trace_overhead_max_ratio]).

    Span taxonomy (DESIGN.md §10): [engine/*] (one per
    {!Rar_engine.run} / prepare), [difflp/solve], [solver/*]
    (network-simplex, ssp, spfa, closure), [sta/*] (analyse,
    backward_all), [wd/build], [classic/*] (of_netlist, feas,
    realize), [sim/error_rate], [pool/batch]. *)

type phase = Begin | End

type event = {
  name : string;
  phase : phase;
  ts_s : float; (* absolute monotonized seconds *)
  dom : int;    (* recording domain id *)
  seq : int;    (* per-domain sequence number *)
}

val arm : unit -> unit
(** Start recording. Buffers are kept from any previous arming; call
    {!clear} first for a fresh trace. *)

val disarm : unit -> unit

val span : string -> (unit -> 'a) -> 'a
(** [span name f] runs [f] inside a [name] span. The End event is
    recorded even when [f] raises ({!Fun.protect}), so traces stay
    balanced across [Deadline.Expired], injected faults and solver
    errors. Disarmed, this is [f ()] behind one atomic load. *)

val span_fn : string -> unit -> unit
(** [span_fn name] records the Begin now and returns the End recorder,
    for call sites that cannot wrap a closure (the pool batch hook).
    The arming decision is taken once: the pair stays balanced even if
    the flag flips in between. Disarmed, returns a shared no-op. *)

val events : unit -> event list
(** Merged view of every domain's buffer, sorted by
    [(ts_s, dom, seq)] — deterministic for a given set of recorded
    events regardless of domain scheduling. *)

val event_count : unit -> int

val check_balanced : unit -> (unit, string) result
(** Per-domain well-nestedness: every Begin has a matching End in LIFO
    order. *)

val clear : unit -> unit
(** Drop all buffered events (buffers of dead pool workers included). *)

val to_json : unit -> Rar_util.Json.t
(** The {b rar-trace/1} document: [{"schema": "rar-trace/1",
    "traceEvents": [...]}] where [traceEvents] is Chrome trace-event
    JSON ([ph] = "B"/"E", [ts] in microseconds relative to the first
    event, [tid] = recording domain) — loadable in [chrome://tracing]
    / Perfetto. *)

val export_file : string -> unit
(** Write {!to_json} (plus a trailing newline) to a file. *)
