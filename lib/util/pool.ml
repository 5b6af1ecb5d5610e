(* Fixed-size domain pool: worker domains block on a Condition until
   tasks arrive; each batch joins on its own counter so concurrent
   submitters (there are none today, but the design allows them from
   the main domain) do not steal each other's completions. *)

type pool = {
  size : int;
  queue : (unit -> unit) Queue.t;
  lock : Mutex.t;
  nonempty : Condition.t;
  mutable stop : bool;
  mutable domains : unit Domain.t list;
}

(* Workers flag themselves so nested [map_adaptive_with] calls fall
   back to sequential evaluation instead of deadlocking the fixed
   pool. *)
let in_worker : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let host_cores () = Domain.recommended_domain_count ()

let default_jobs () =
  match Sys.getenv_opt "RAR_JOBS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some j when j >= 1 -> j
    | Some _ | None -> 1)
  | None -> Int.max 1 (host_cores () - 1)

let override : int option ref = ref None
let jobs () = match !override with Some j -> j | None -> default_jobs ()

(* Self-sizing: the requested job count is a ceiling, not a command.
   Worker domains beyond the physical core count time-slice against
   each other (and against the submitting domain) — measured at 0.24x
   on a 1-core host — so dispatch clamps to the core count; and a
   batch with fewer than [min_tasks_per_domain] tasks per worker pays
   more in queue/wake traffic than it can win back, so it runs
   sequentially. *)
let min_tasks_per_domain = 2

let effective_jobs () = Int.min (jobs ()) (host_cores ())

(* Optional per-dispatch decision hook (installed by the observability
   layer, which lives above this module): fired once per
   [map_adaptive_with] call with the sizing decision, [reason] one of
   "parallel", "requested", "nested", "single_chunk", "host_clamp",
   "task_ratio". *)
let decision_hook :
    (requested:int -> effective:int -> n_tasks:int -> reason:string -> unit)
    option
    ref =
  ref None

let set_decision_hook h = decision_hook := h

let decide ~n_tasks ~nested =
  let requested = jobs () in
  let clamped = Int.min requested (host_cores ()) in
  if nested then (requested, 1, "nested")
  else if requested <= 1 then (requested, 1, "requested")
  else if n_tasks <= 1 then (requested, 1, "single_chunk")
  else if clamped <= 1 then (requested, 1, "host_clamp")
  else if n_tasks < min_tasks_per_domain * clamped then
    (requested, 1, "task_ratio")
  else (requested, clamped, if clamped < requested then "host_clamp" else "parallel")

let worker p () =
  Domain.DLS.set in_worker true;
  let rec loop () =
    Mutex.lock p.lock;
    while Queue.is_empty p.queue && not p.stop do
      Condition.wait p.nonempty p.lock
    done;
    if Queue.is_empty p.queue then Mutex.unlock p.lock (* stop *)
    else begin
      let task = Queue.pop p.queue in
      Mutex.unlock p.lock;
      (* A raising task must not kill its domain: [map_adaptive_with]'s
         task bodies capture exceptions for the submitter, so anything
         escaping here has no one left to report to — swallow it and
         keep the worker alive for the next batch. *)
      (try task () with _ -> ());
      loop ()
    end
  in
  loop ()

let current : pool option ref = ref None

(* Guards [current]: pool creation and teardown may now race (the
   serve daemon's connection threads submit concurrently with the main
   loop). Never held while waiting for work — only around the
   spawn/join bookkeeping. *)
let creation_lock = Mutex.create ()

let shutdown_locked () =
  match !current with
  | None -> ()
  | Some p ->
    Mutex.lock p.lock;
    p.stop <- true;
    Condition.broadcast p.nonempty;
    Mutex.unlock p.lock;
    List.iter Domain.join p.domains;
    current := None

let with_creation_lock f =
  Mutex.lock creation_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock creation_lock) f

let shutdown () = with_creation_lock shutdown_locked

let () = at_exit shutdown

let get_pool size =
  with_creation_lock @@ fun () ->
  (match !current with
  | Some p when p.size <> size -> shutdown_locked ()
  | Some _ | None -> ());
  match !current with
  | Some p -> p
  | None ->
    let p =
      { size; queue = Queue.create (); lock = Mutex.create ();
        nonempty = Condition.create (); stop = false; domains = [] }
    in
    p.domains <- List.init size (fun _ -> Domain.spawn (worker p));
    current := Some p;
    p

let set_jobs j =
  let j = Int.max 1 j in
  override := Some j;
  with_creation_lock @@ fun () ->
  match !current with
  | Some p when p.size <> Int.min j (host_cores ()) -> shutdown_locked ()
  | Some _ | None -> ()

(* Optional per-element hook, run just before each element is
   evaluated (on both the sequential and pooled paths). Installed by
   the fault-injection layer to simulate a task dying mid-batch; when
   [None] the paths are byte-for-byte the unhooked behaviour. *)
let task_hook : (unit -> unit) option ref = ref None
let set_task_hook h = task_hook := h

(* Optional per-batch hook, fired once per pooled [map_adaptive_with]
   dispatch (never on the sequential path) with the batch size and the
   queue occupancy just after enqueueing. It returns a completion
   callback invoked when the batch joins — even if the join re-raises a
   task's exception. Installed by the observability layer, which lives
   above this module and so cannot be named from here. *)
let batch_hook :
    (n_tasks:int -> occupancy:int -> (unit -> unit)) option ref =
  ref None

let set_batch_hook h = batch_hook := h

(* The one dispatch kernel, one pool task per chunk: [init] builds
   per-chunk state once, in the domain that runs the chunk, and [f]
   receives it with every element of that chunk.

   Adaptive chunking: the chunk size follows the batch size and the
   effective worker count instead of a fixed grain. A fixed chunk
   interacts badly with the task-ratio threshold in [decide]: 256-sink
   chunks turn a 1125-sink batch into 5 tasks, which at 4 workers is
   below the 2-tasks-per-domain floor, so the whole batch silently ran
   sequentially — exactly on the multi-thousand-element inputs the
   pool exists for. Aiming at 4 tasks per worker keeps the batch above
   the threshold while leaving enough tasks for the queue to balance
   uneven chunk costs. Batches under 512 elements run sequentially,
   and no chunk is smaller than 64 elements. *)
let map_adaptive_with ~(init : unit -> 's) (xs : 'a array)
    (f : 's -> 'a -> 'b) : 'b array =
  let f =
    match !task_hook with
    | None -> f
    | Some hook ->
      fun s x ->
        hook ();
        f s x
  in
  let n = Array.length xs in
  let chunk =
    if n < 512 then Int.max 1 n
    else
      let target = effective_jobs () * 4 in
      Int.max 64 ((n + target - 1) / target)
  in
  let n_tasks = (n + chunk - 1) / chunk in
  (* A single chunk means the pool could only serialise the work with
     extra dispatch overhead; likewise a sub-threshold task-per-domain
     ratio or a host with fewer cores than requested domains: all
     those take the plain sequential path (identical results — pool
     size never changes outputs, only wall clock). *)
  let requested, size, reason = decide ~n_tasks ~nested:(Domain.DLS.get in_worker) in
  (match !decision_hook with
  | Some hook -> hook ~requested ~effective:size ~n_tasks ~reason
  | None -> ());
  if n = 0 then [||]
  else if size <= 1 then Array.map (f (init ())) xs
  else begin
    let p = get_pool size in
    let results : ('b, exn * Printexc.raw_backtrace) result option array =
      Array.make n None
    in
    let pending = ref n_tasks in
    let join_lock = Mutex.create () in
    let all_done = Condition.create () in
    Mutex.lock p.lock;
    for t = 0 to n_tasks - 1 do
      let lo = t * chunk in
      let hi = Int.min n (lo + chunk) - 1 in
      Queue.add
        (fun () ->
          (* The batch counter must complete even if something raises
             outside the per-element capture below (it cannot today,
             but a stuck [pending] would hang the submitter forever —
             the one failure mode this module must never have). *)
          Fun.protect
            ~finally:(fun () ->
              Mutex.lock join_lock;
              decr pending;
              if !pending = 0 then Condition.signal all_done;
              Mutex.unlock join_lock)
            (fun () ->
              match init () with
              | s ->
                for i = lo to hi do
                  let r =
                    try Ok (f s xs.(i))
                    with e -> Error (e, Printexc.get_raw_backtrace ())
                  in
                  results.(i) <- Some r
                done
              | exception e ->
                let r = Error (e, Printexc.get_raw_backtrace ()) in
                for i = lo to hi do
                  results.(i) <- Some r
                done))
        p.queue
    done;
    let occupancy = Queue.length p.queue in
    Condition.broadcast p.nonempty;
    Mutex.unlock p.lock;
    let on_done =
      match !batch_hook with
      | None -> None
      | Some hook -> Some (hook ~n_tasks ~occupancy)
    in
    Fun.protect
      ~finally:(fun () -> Option.iter (fun fin -> fin ()) on_done)
      (fun () ->
        Mutex.lock join_lock;
        while !pending > 0 do
          Condition.wait all_done join_lock
        done;
        Mutex.unlock join_lock);
    Array.map
      (function
        | Some (Ok v) -> v
        | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
        | None ->
          failwith
            "Rar_util.Pool.map_adaptive_with: task finished without a result")
      results
  end

(* Asynchronous single-task submission, for the serve daemon: enqueue
   and return immediately; the task runs on a pool worker (so its own
   nested [map_adaptive_with] calls take the sequential path) and
   delivers its result through whatever channel it captured. Unlike
   [map_adaptive_with] there is no join, so the submitter must do its
   own completion bookkeeping. A pool is always materialised — even at
   an effective size of 1 — because an async task needs a worker to
   run on. *)
let submit (task : unit -> unit) : unit =
  let size = Int.max 1 (effective_jobs ()) in
  let p = get_pool size in
  Mutex.lock p.lock;
  Queue.add task p.queue;
  Condition.signal p.nonempty;
  Mutex.unlock p.lock
