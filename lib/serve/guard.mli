(** Per-request guards: every request executes under a cooperative
    budget token combining a wall-clock deadline and a heap ceiling,
    plus a total exception classifier so no failure mode escapes the
    request boundary unstructured (the resiliparse [process_guard]
    idiom, cooperatively: nothing is killed, the solver inner loops
    notice at their stride-256 check sites and unwind). *)

type limits = {
  deadline_s : float option;  (** wall-clock budget; [None] = unbounded *)
  max_heap_mb : int option;  (** major-heap ceiling; [None] = none *)
}

exception Heap_exceeded of { heap_mb : int; limit_mb : int }
(** Raised from a token's sample hook when the major heap passes the
    ceiling. The heap is a process-wide resource, so this is a
    backstop against runaway requests, not an accounting of one
    request's allocations: whichever guarded request samples first
    after the crossing reports it. *)

val token : limits -> Rar_util.Deadline.t
(** Build the request's budget token. The heap ceiling is checked at
    the token's strided clock samples — the same sites as the
    deadline — via {!Rar_util.Deadline.set_on_sample}. Unbudgeted
    requests get an [infinity] deadline rather than none, so a
    signal's process-wide cancel ({!Rar_util.Deadline.request_cancel})
    and the heap guard still have check sites. *)

val heap_mb : unit -> int
(** Major-heap size in MB ([Gc.quick_stat], cheap). Its [heap_words]
    moves only when a major cycle ends, so the reading is the heap as
    of the last completed cycle: data allocated since (a request's
    burst, say) shows up after the next one. *)

val kind_of_error : Rar_retime.Error.t -> string
(** Machine tag for a typed engine error, distinguishing a cancel
    (["cancelled"], from a SIGINT/SIGTERM's process-wide cancel) from
    a genuine ["timeout"]. *)

val classify : exn -> string * string
(** [(kind, message)] for anything a request can raise: ["timeout"],
    ["cancelled"], ["memory"], ["worker_crashed"] or ["internal"].
    Total — includes [Out_of_memory] and [Stack_overflow]. *)
