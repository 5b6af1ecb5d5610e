(** Fixed-size domain pool for data-parallel evaluation.

    A lazily-created set of worker domains pulls tasks from a shared
    work queue ([Mutex] + [Condition], no dependencies beyond the
    stdlib). The pool size comes from, in priority order:

    + {!set_jobs} (the CLI's [--jobs] flag);
    + the [RAR_JOBS] environment variable;
    + [Domain.recommended_domain_count () - 1], but at least 1.

    The requested size is a ceiling, not a command: each {!map}
    dispatch is self-sizing. The count is clamped to the physical
    core count ([Domain.recommended_domain_count ()] — oversubscribed
    domains time-slice against the submitter and each other), and a
    batch with fewer than two tasks per worker runs sequentially
    (dispatch overhead would dominate). Pool size never changes
    results, only wall clock, so the clamp is invisible except in
    timing and the {!set_decision_hook} observability seam.

    With an effective size of 1 every call degrades to plain
    sequential evaluation in the calling domain — no domains are
    spawned, so that path is byte-for-byte the old sequential
    behaviour. Calls made {e from inside} a worker task also run
    sequentially (nested parallelism would deadlock a fixed pool),
    which makes [Pool.map] safe to use at every layer of the
    evaluation stack.

    Exceptions raised by tasks are captured per task and re-raised at
    the join, lowest task index first, with their original backtrace,
    so [Error]/[Failure] plumbing behaves as in sequential code. *)

val jobs : unit -> int
(** Requested pool size (≥ 1), before host clamping. *)

val host_cores : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val effective_jobs : unit -> int
(** [min (jobs ()) (host_cores ())]: the upper bound on worker domains
    any dispatch will actually use (a specific batch may still fall
    back to sequential on the task-ratio threshold). *)

val set_jobs : int -> unit
(** Override the pool size (values < 1 are clamped to 1). If a pool of
    a different size is already running it is drained, joined and
    re-spawned lazily at the next parallel call. *)

val map : ?min_chunk:int -> 'a array -> ('a -> 'b) -> 'b array
(** [map xs f] applies [f] to every element, in parallel across the
    pool, preserving order. Equivalent to [Array.map f xs] (including
    exception behaviour, up to which of several raising tasks wins:
    the lowest-index exception is re-raised).

    [min_chunk] (default 1, i.e. one task per element) dispatches
    contiguous chunks of that many elements as single pool tasks:
    cheap per-element work should batch so the queue/lock traffic does
    not dominate. When the input fits in one chunk the call degrades
    to the plain sequential path without touching the pool — the
    work-size threshold that keeps small fan-outs sequential. *)

val map_adaptive : 'a array -> ('a -> 'b) -> 'b array
(** [map_adaptive xs f] is {!map} with the chunk size derived from the
    batch: inputs shorter than 512 elements run sequentially in place,
    larger ones are cut into roughly 4 chunks per effective worker,
    never smaller than 64 elements. Use this instead of a
    hand-picked [min_chunk] for per-element work in the 0.1–1 ms range:
    a fixed grain either starves the pool on mid-size batches (too few
    tasks trips {!map}'s task-ratio fallback) or drowns it in dispatch
    overhead on huge ones. Results are identical to [Array.map f xs]
    at any pool size. *)

val map_adaptive_with :
  init:(unit -> 's) ->
  'a array ->
  ('s -> 'a -> 'b) ->
  'b array
(** {!map_adaptive} with per-chunk state: every chunk the call runs
    (the whole array, on the sequential path) first builds its own
    state with [init], in the domain that evaluates it, and passes it
    to [f] for each of its elements. For reusable scratch buffers that
    must stay private to one call and one domain: the state is never
    shared between chunks, calls or domains. [init] is not called for
    an empty array; an [init] that raises fails every element of its
    chunk. *)

val run : (unit -> 'a) list -> 'a list
(** [run thunks] evaluates the thunks in parallel, returning results
    in the original order. *)

val submit : (unit -> unit) -> unit
(** [submit task] enqueues [task] for asynchronous execution on a pool
    worker and returns immediately — the serve daemon's scheduling
    primitive. The task runs with the nested-parallelism flag set (its
    own {!map} calls evaluate sequentially in that worker), must not
    raise (an escaping exception is swallowed by the worker loop; wrap
    everything), and is responsible for delivering its own result —
    there is no join. A worker domain is materialised even when the
    effective pool size is 1, so submission never degrades to inline
    execution in the calling domain. *)

val set_task_hook : (unit -> unit) option -> unit
(** Install (or clear) a hook run immediately before every element a
    {!map} call evaluates — on the sequential path too, so behaviour
    does not depend on the pool threshold. A raising hook behaves
    exactly like a raising task: captured per element and re-raised at
    the submitter's join. This is the fault-injection seam used by
    [Rar_resilience.Faults] to simulate a killed pool task; with no
    hook installed the code path is unchanged. *)

val set_batch_hook : (n_tasks:int -> occupancy:int -> (unit -> unit)) option -> unit
(** Install (or clear) a hook fired once per pooled {!map} dispatch —
    never on the sequential fast path — with the number of tasks in
    the batch and the queue occupancy just after enqueueing. The hook
    returns a completion callback, invoked when the batch joins (even
    when the join re-raises a task's exception), so the pair brackets
    the batch's lifetime. This is the seam [Rar_obs] uses for pool
    gauges and [pool/batch] spans; with no hook installed the code
    path is unchanged. *)

val set_decision_hook :
  (requested:int -> effective:int -> n_tasks:int -> reason:string -> unit)
  option ->
  unit
(** Install (or clear) a hook fired once per {!map} call — sequential
    paths included — with the sizing decision: the requested job
    count, the effective count used ([1] = sequential), the task
    count, and the reason ("parallel", "requested", "nested",
    "single_chunk", "host_clamp", "task_ratio"). The seam [Rar_obs]
    uses for the [pool_jobs_effective] / fallback gauges. *)
