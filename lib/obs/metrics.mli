(** Named counters and gauges (the metrics half of [Rar_obs]).

    Metrics are registered once, at module-init time, by the subsystem
    that owns them, and updated with atomic adds. Disarmed (the
    default) every update is a single atomic load and a no-op.

    {b Counters} are algorithm-effort totals — [netsimplex_pivots],
    [maxflow_phases], [maxflow_augmentations], [sta_pin_relaxations],
    [stage_cone_nodes], [stage_sweep_nodes], [stage_sinks_pruned],
    [solver_fallbacks], [sim_cycles], [sim_events]. Kernels
    accumulate a local count and publish it once per call, so counter
    totals are deterministic: identical for the same work under any
    [RAR_JOBS] (atomic adds commute, and per-call counts do not depend
    on scheduling).

    {b Gauges} are scheduling-dependent observations — [pool_batches],
    [pool_tasks] (participants), [pool_queue_max], the self-sizing
    decisions [pool_jobs_requested]/[pool_jobs_effective] and the
    [pool_seq_fallback_*] reason counts — and carry no cross-[RAR_JOBS]
    determinism contract (a 1-job run never touches the pool at
    all). *)

type kind = Counter | Gauge

type t
(** A registered metric cell. *)

val arm : unit -> unit
val disarm : unit -> unit
val enabled : unit -> bool

val counter : string -> t
(** [counter name] registers (or retrieves — same name and kind return
    the same cell) a counter. Call at module-init time. *)

val gauge : string -> t
(** Like {!counter}, for a gauge. *)

val name : t -> string

val add : t -> int -> unit
(** [add c n] atomically adds [n]; a no-op when disarmed or [n = 0]. *)

val incr : t -> unit

val set : t -> int -> unit
(** [set c n] stores [n] (last write wins); a no-op when disarmed. For
    decision gauges like [pool_jobs_effective]. *)

val set_max : t -> int -> unit
(** [set_max c n] raises the cell to [n] if below it (CAS loop); a
    no-op when disarmed. For high-water-mark gauges. *)

val value : t -> int

val reset : unit -> unit
(** Zero every registered cell (all domains' updates included). *)

val snapshot : unit -> (string * int) list * (string * int) list
(** [(counters, gauges)], each sorted by name — deterministic. *)

val snapshot_json : unit -> Rar_util.Json.t
(** [{"counters": {...}, "gauges": {...}}], names sorted — the
    [metrics] object embedded in rar-run/1 output by [--metrics]. *)
