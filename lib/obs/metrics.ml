(* Named counters and gauges, registered once at module-init time by
   the subsystem that owns them and summed atomically.

   Counters are algorithm-effort totals (network-simplex pivots,
   max-flow phases and augmentations, SPFA relaxations, SSP
   augmentations, STA pin relaxations, W/D memo hits/misses, solver
   fallbacks): each kernel accumulates a local
   count and publishes it once per call, so the inner loops stay
   untouched and the totals are deterministic — identical under any
   RAR_JOBS because atomic adds commute and the per-call counts do not
   depend on scheduling. Gauges are scheduling-dependent runtime
   observations (pool batch/task counts, peak queue occupancy) and are
   excluded from that determinism contract.

   Disarmed (the default), updates are a single atomic load. *)

module Pool = Rar_util.Pool
module Json = Rar_util.Json

type kind = Counter | Gauge

type t = { name : string; kind : kind; cell : int Atomic.t }

let armed = Atomic.make false
let enabled () = Atomic.get armed
let arm () = Atomic.set armed true
let disarm () = Atomic.set armed false

let registry : t list ref = ref []
let lock = Mutex.create ()

(* Same (name, kind) returns the existing cell, so re-registration
   (e.g. from tests) cannot split a metric in two. *)
let register kind name =
  Mutex.lock lock;
  let cell =
    match
      List.find_opt (fun c -> c.name = name && c.kind = kind) !registry
    with
    | Some c -> c
    | None ->
      let c = { name; kind; cell = Atomic.make 0 } in
      registry := c :: !registry;
      c
  in
  Mutex.unlock lock;
  cell

let counter name = register Counter name
let gauge name = register Gauge name

let name c = c.name

let add c n =
  if n <> 0 && Atomic.get armed then ignore (Atomic.fetch_and_add c.cell n)

let incr c = add c 1

let set c n = if Atomic.get armed then Atomic.set c.cell n

let set_max c n =
  if Atomic.get armed then begin
    let rec go () =
      let cur = Atomic.get c.cell in
      if n > cur && not (Atomic.compare_and_set c.cell cur n) then go ()
    in
    go ()
  end

let value c = Atomic.get c.cell

let reset () =
  Mutex.lock lock;
  List.iter (fun c -> Atomic.set c.cell 0) !registry;
  Mutex.unlock lock

let snapshot () =
  Mutex.lock lock;
  let cells = !registry in
  Mutex.unlock lock;
  let part k =
    cells
    |> List.filter (fun c -> c.kind = k)
    |> List.map (fun c -> (c.name, Atomic.get c.cell))
    |> List.sort compare
  in
  (part Counter, part Gauge)

let snapshot_json () =
  let counters, gauges = snapshot () in
  let obj xs = Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) xs) in
  Json.Obj [ ("counters", obj counters); ("gauges", obj gauges) ]

(* --- pool instrumentation ------------------------------------------ *)

(* The pool lives below this library, so it cannot name these cells;
   instead it exposes a batch hook that we install at load time (the
   same pattern Faults uses for its pool-kill hook). The hook fires
   once per pooled batch — never on the sequential fast path, which is
   why all three are gauges. *)
let pool_batches = gauge "pool_batches"
let pool_tasks = gauge "pool_tasks"
let pool_queue_max = gauge "pool_queue_max"

let () =
  Pool.set_batch_hook
    (Some
       (fun ~n_tasks ~occupancy ->
         add pool_batches 1;
         add pool_tasks n_tasks;
         set_max pool_queue_max occupancy;
         Trace.span_fn "pool/batch"))

(* Self-sizing decisions (PR 6): the last dispatch's effective size
   plus one fallback counter per reason, so a run's metrics show both
   what the pool resolved to and why batches stayed sequential. *)
let pool_jobs_requested = gauge "pool_jobs_requested"
let pool_jobs_effective = gauge "pool_jobs_effective"
let pool_seq_nested = gauge "pool_seq_fallback_nested"
let pool_seq_single = gauge "pool_seq_fallback_single_chunk"
let pool_seq_host = gauge "pool_seq_fallback_host_clamp"
let pool_seq_ratio = gauge "pool_seq_fallback_task_ratio"

let () =
  Pool.set_decision_hook
    (Some
       (fun ~requested ~effective ~n_tasks:_ ~reason ->
         set pool_jobs_requested requested;
         set pool_jobs_effective effective;
         match reason with
         | "nested" -> add pool_seq_nested 1
         | "single_chunk" -> add pool_seq_single 1
         | "host_clamp" when effective = 1 -> add pool_seq_host 1
         | "task_ratio" -> add pool_seq_ratio 1
         | _ -> ()))
