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

(* Worker domains beyond the core count time-slice against each other
   and the submitter (0.24x measured on a 1-core host). *)
let effective_jobs () = Int.min (jobs ()) (host_cores ())

(* The observability layer's hooks (see the .mli): it lives above this
   module, so it installs them at load time. *)
let decision_hook :
    (requested:int -> effective:int -> reason:string -> unit) option ref =
  ref None

let set_decision_hook h = decision_hook := h

(* [max_participants] is asked last, so a bound that costs work to
   compute is paid only where the call could otherwise go parallel. *)
let decide ~n ~nested ~max_participants =
  let requested = jobs () in
  let clamped = Int.min requested (host_cores ()) in
  if nested then (requested, 1, "nested")
  else if requested <= 1 then (requested, 1, "requested")
  else if n <= 1 then (requested, 1, "single_element")
  else if clamped <= 1 then (requested, 1, "host_clamp")
  else
    let size = Int.min (Int.min clamped n) (max_participants ()) in
    if size <= 1 then (requested, 1, "little_work")
    else
      (requested, size, if clamped < requested then "host_clamp" else "parallel")

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

let task_hook : (unit -> unit) option ref = ref None
let set_task_hook h = task_hook := h

let batch_hook :
    (n_tasks:int -> occupancy:int -> (unit -> unit)) option ref =
  ref None

let set_batch_hook h = batch_hook := h

(* One pool task per participant, pulling element indices from one
   counter. A task that starts after the last element was taken builds
   no state: a worker that picks up a second task of the same call has
   finished its first, so no domain builds two states in one call. *)
let map_adaptive_with ?(max_participants = fun () -> max_int)
    ~(init : unit -> 's) (xs : 'a array) (f : 's -> 'a -> 'b) : 'b array =
  let f =
    match !task_hook with
    | None -> f
    | Some hook ->
      fun s x ->
        hook ();
        f s x
  in
  let n = Array.length xs in
  (* One participant means the pool could only serialise the work with
     extra dispatch overhead: take the plain sequential path (identical
     results — pool size never changes outputs, only wall clock). *)
  let requested, size, reason =
    decide ~n ~nested:(Domain.DLS.get in_worker) ~max_participants
  in
  (match !decision_hook with
  | Some hook -> hook ~requested ~effective:size ~reason
  | None -> ());
  if n = 0 then [||]
  else if size <= 1 then Array.map (f (init ())) xs
  else begin
    let p = get_pool (effective_jobs ()) in
    let results : ('b, exn * Printexc.raw_backtrace) result option array =
      Array.make n None
    in
    let next = Atomic.make 0 in
    let rec pull g =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        results.(i) <- Some (g i);
        pull g
      end
    in
    let pending = ref size in
    let join_lock = Mutex.create () in
    let all_done = Condition.create () in
    Mutex.lock p.lock;
    for _ = 1 to size do
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
              if Atomic.get next < n then
                match init () with
                | s ->
                  pull (fun i ->
                      try Ok (f s xs.(i))
                      with e -> Error (e, Printexc.get_raw_backtrace ()))
                | exception e ->
                  let r = Error (e, Printexc.get_raw_backtrace ()) in
                  pull (fun _ -> r)))
        p.queue
    done;
    let occupancy = Queue.length p.queue in
    Condition.broadcast p.nonempty;
    Mutex.unlock p.lock;
    let on_done =
      match !batch_hook with
      | None -> None
      | Some hook -> Some (hook ~n_tasks:size ~occupancy)
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
