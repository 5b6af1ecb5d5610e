(** The wire protocol: newline-delimited JSON, one ["rar-req/1"]
    request object per line in, one ["rar-serve/1"] response envelope
    per line out. Responses stream in completion order and echo the
    request's [id] verbatim, so clients match them by [id], not by
    position.

    A run request names a suite [circuit] or carries inline [bench]
    text (exactly one), an optional inline Liberty [library], the
    engine knobs ([approach], [model], [solver], [c], [post_swap],
    [movable_moves]), an optional [edits] script, the per-request
    guard limits ([deadline] seconds, [max_heap_mb]) and a [metrics]
    flag. Defaults mirror [rar run]: G-RAR, then the
    {!Rar_engine.config} defaults for every other knob.

    The response envelope is [{schema; id; status; result|error;
    wall_s}] with [status] ["ok"] or ["error"]; a run result embeds
    the same ["rar-run/1"] document [rar run --json] prints, and an
    error carries [{kind; message}] with a stable machine [kind]
    (["parse"], ["bad_request"], {!Rar_retime.Error.kind} tags,
    ["cancelled"], ["memory"], ["internal"]). *)

type run_req = {
  circuit : string option;
  bench : string option;
  library : string option;
  config : Rar_engine.config;
      (** the engine knobs; an absent one takes its {!Rar_engine.config}
          default *)
  edits : string option;
  deadline_s : float option;
  max_heap_mb : int option;
  want_metrics : bool;
}

type verb = Run of run_req | Ping | Metrics | Shutdown

type request = { id : Rar_util.Json.t; verb : verb }

val parse : Rar_util.Json.t -> (request, string) result
(** Validate a parsed request object. Unknown [verb], mistyped or
    contradictory fields are errors (a present-but-mistyped field
    never silently takes its default). *)

val ok : id:Rar_util.Json.t -> wall_s:float -> Rar_util.Json.t -> Rar_util.Json.t

val error :
  id:Rar_util.Json.t ->
  wall_s:float ->
  kind:string ->
  message:string ->
  Rar_util.Json.t
