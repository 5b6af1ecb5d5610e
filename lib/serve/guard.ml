module Deadline = Rar_util.Deadline
module Error = Rar_retime.Error
module Faults = Rar_resilience.Faults

type limits = { deadline_s : float option; max_heap_mb : int option }

exception Heap_exceeded of { heap_mb : int; limit_mb : int }

let bytes_per_word = Sys.word_size / 8

let heap_mb () =
  (Gc.quick_stat ()).Gc.heap_words * bytes_per_word / (1024 * 1024)

(* The request token: a cooperative deadline whose strided clock
   samples double as the heap-ceiling checkpoints. With no budget the
   token is unbounded but still carries check sites, so a signal's
   process-wide cancel and the heap guard fire even for requests that
   asked for no deadline. *)
let token { deadline_s; max_heap_mb } =
  let budget_s = Option.value deadline_s ~default:Float.infinity in
  let d = Deadline.make ~budget_s in
  (match max_heap_mb with
  | Some limit_mb ->
    Deadline.set_on_sample d (fun ~phase:_ ->
        let heap_mb = heap_mb () in
        if heap_mb > limit_mb then raise (Heap_exceeded { heap_mb; limit_mb }))
  | None -> ());
  d

let cancelled_phase phase = String.length phase >= 7 && String.sub phase 0 7 = "cancel:"

let kind_of_error = function
  | Error.Timeout { phase; _ } when cancelled_phase phase -> "cancelled"
  | e -> Error.kind e

(* Total classification of anything a request can throw: the server
   turns every escape into a structured error response instead of
   dying. [Out_of_memory] and [Stack_overflow] are included — after a
   guard trip or allocator failure the heap has just been unwound, so
   answering with an error and continuing is safe (and is the whole
   point of the per-request heap ceiling). *)
let classify = function
  | Deadline.Expired { elapsed; phase } when cancelled_phase phase ->
    ( "cancelled",
      Printf.sprintf "request cancelled after %.1f s (%s)" elapsed phase )
  | Deadline.Expired { elapsed; phase } ->
    ("timeout", Printf.sprintf "deadline expired after %.1f s in %s" elapsed phase)
  | Heap_exceeded { heap_mb; limit_mb } ->
    ( "memory",
      Printf.sprintf "heap ceiling exceeded: %d MB > %d MB limit" heap_mb
        limit_mb )
  | Out_of_memory -> ("memory", "allocation failed (Out_of_memory)")
  | Stack_overflow -> ("internal", "stack overflow")
  | Faults.Injected detail -> ("worker_crashed", "injected fault: " ^ detail)
  | e -> ("internal", Printexc.to_string e)
