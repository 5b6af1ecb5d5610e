(** Fixed-size domain pool for data-parallel evaluation.

    A lazily-created set of worker domains pulls tasks from a shared
    work queue ([Mutex] + [Condition], no dependencies beyond the
    stdlib). The pool size comes from, in priority order:

    + {!set_jobs} (the CLI's [--jobs] flag);
    + the [RAR_JOBS] environment variable;
    + [Domain.recommended_domain_count () - 1], but at least 1.

    The requested size is a ceiling: each {!map_adaptive_with} call
    sizes itself, and the pool size never changes results, only wall
    clock. *)

val jobs : unit -> int
(** Requested pool size (≥ 1), before host clamping. *)

val host_cores : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val effective_jobs : unit -> int
(** [min (jobs ()) (host_cores ())]: the pool's worker count, and the
    upper bound on the domains any dispatch uses (a call with fewer
    elements uses fewer). *)

val set_jobs : int -> unit
(** Override the pool size (values < 1 are clamped to 1). If a pool of
    a different size is already running it is drained, joined and
    re-spawned lazily at the next parallel call. *)

val map_adaptive_with :
  ?max_participants:(unit -> int) ->
  init:(unit -> 's) ->
  'a array ->
  ('s -> 'a -> 'b) ->
  'b array
(** [map_adaptive_with ~init xs f] is [Array.map (f (init ())) xs],
    evaluated across the pool. The call takes [min (effective_jobs ())
    (Array.length xs) (max_participants ())] participants, one pool
    task each. Each builds its own state with [init], in the domain
    that runs it (never shared between participants, calls or domains:
    for private scratch buffers), and pulls element indices from one
    shared counter until none is left, so elements of uneven cost
    balance. With one participant, or from inside a pool task (nested
    parallelism would deadlock a fixed pool), the call runs in the
    calling domain with one state. [init] is not called for an empty
    array; an [init] that raises fails every element its participant
    takes. Results are identical at any pool size: of several raising
    elements, the lowest-index exception is re-raised at the join,
    with its backtrace.

    [max_participants] (default: none) is the caller's bound from the
    work it can observe: a participant costs its own state, and the
    first dispatch leaves idle domains that every later minor
    collection of the process waits for. It is asked at most once, and
    only where the call could otherwise run on two or more domains. *)

val submit : (unit -> unit) -> unit
(** [submit task] enqueues [task] for asynchronous execution on a pool
    worker and returns immediately — the serve daemon's scheduling
    primitive. The task runs with the nested-parallelism flag set (its
    own {!map_adaptive_with} calls evaluate sequentially in that
    worker), must not raise (an escaping exception is swallowed by the
    worker loop; wrap everything), and is responsible for delivering
    its own result — there is no join. A worker domain is materialised
    even when the effective pool size is 1, so submission never
    degrades to inline execution in the calling domain. *)

val set_task_hook : (unit -> unit) option -> unit
(** Install (or clear) a hook run immediately before every element a
    {!map_adaptive_with} call evaluates — on the sequential path too,
    so behaviour does not depend on the pool size. A raising hook
    behaves exactly like a raising task: captured per element and
    re-raised at the submitter's join. This is the fault-injection
    seam used by [Rar_resilience.Faults] to simulate a killed pool
    task; with no hook installed the code path is unchanged. *)

val set_batch_hook : (n_tasks:int -> occupancy:int -> (unit -> unit)) option -> unit
(** Install (or clear) a hook fired once per pooled
    {!map_adaptive_with} dispatch — never on the sequential fast path
    — with the number of tasks (participants) in the batch and the
    queue occupancy just after enqueueing. The hook returns a
    completion callback, invoked when the batch joins (even when the
    join re-raises an element's exception), so the pair brackets the
    batch's lifetime. This is the
    seam [Rar_obs] uses for pool gauges and [pool/batch] spans; with no
    hook installed the code path is unchanged. *)

val set_decision_hook :
  (requested:int -> effective:int -> reason:string -> unit) option -> unit
(** Install (or clear) a hook fired once per {!map_adaptive_with}
    call — sequential paths included — with the sizing decision: the
    requested job count, the participants used ([1] = sequential), and
    the reason ("parallel", "requested", "nested", "single_element",
    "host_clamp", "little_work"). The seam [Rar_obs] uses for the
    [pool_jobs_effective] / fallback gauges. *)
