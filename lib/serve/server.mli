(** The [rar serve] daemon core: a fault-isolated request executor
    over the shared domain {!Rar_util.Pool}, plus two transports
    (framed stdio and a Unix-domain socket).

    Run requests are scheduled asynchronously on pool workers — each
    under its own {!Guard.token} — and their responses stream back in
    completion order; [ping]/[metrics]/[shutdown] are answered inline
    from the reading thread. Any failure (parse error, unknown
    circuit, engine error, deadline or heap-guard trip, injected
    fault) degrades to a structured error response on that request
    alone: the server and every other in-flight request continue.

    Drain lifecycle: a [shutdown] verb (or EOF on stdio) stops intake
    and lets in-flight requests finish, cancelling nothing;
    SIGINT/SIGTERM (wired by the CLI to
    {!Rar_util.Deadline.request_cancel} + {!signal_stop}) additionally
    raise the process-wide cancel that every in-flight token samples,
    so long solves unwind promptly as ["cancelled"] errors. Either way
    every scheduled request gets exactly one response before the
    transport returns. *)

type t

val create : unit -> t
(** Fresh server state over fresh {!Cache.create} caches. *)

val caches : t -> Cache.t
val stopping : t -> bool

val signal_stop : t -> unit
(** Async-signal-safe stop request: flips the stop flag only (no
    locks, no hooks). Pair with {!Rar_util.Deadline.request_cancel}
    in a SIGINT/SIGTERM handler; the interrupted transport completes
    the shutdown itself. *)

val initiate_shutdown : t -> unit
(** Stop intake and run the transport wakeup hooks. Idempotent;
    safe from signal-handler context apart from the hooks it runs. *)

val drain : t -> unit
(** Block until every scheduled request has been answered. *)

val handle_line :
  ?acquire:(unit -> unit) ->
  ?release:(unit -> unit) ->
  t ->
  sink:(string -> unit) ->
  string ->
  unit
(** Parse and dispatch one request line. [sink] receives exactly one
    response line per request, possibly from a pool worker thread —
    it must be safe to call concurrently and may raise if the peer is
    gone (the failure is contained). [acquire]/[release] bracket the
    lifetime of an asynchronously scheduled response (transports use
    them to refcount the output fd). *)

val serve_stdio : t -> unit
(** Serve newline-delimited JSON over stdin/stdout until [shutdown],
    EOF or {!initiate_shutdown}; drains before returning. *)

val serve_socket : t -> path:string -> unit
(** Listen on a Unix-domain socket, one thread per connection, until
    [shutdown] or {!initiate_shutdown}; drains, joins connection
    threads and removes the socket file before returning. *)
