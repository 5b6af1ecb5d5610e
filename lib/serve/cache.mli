(** Cross-request caches, keyed by content hash.

    Four LRU layers chain their keys off upstream content digests —
    libraries by source-text MD5 (["builtin"] for the default),
    prepared circuits by suite name or bench-text MD5 plus the library
    key, frozen stage analyses by circuit key plus STA model, and warm
    engine sessions by stage key, {!Rar_engine.config_key} and the
    edit-script digest. Each session owns its LP solve cache
    ({!Rar_flow.Difflp.cache}); no solve cache is shared across
    requests.

    Libraries, circuits and stages are immutable after construction
    and are shared between concurrent requests ({!Lru.find}); sessions
    are single-owner and use {!Lru.take}/{!put_session} checkout. All
    loaders return [(key, value)] on success or a structured
    [(kind, message)] error the server answers with. *)

type t

val create : unit -> t
(** Capacities: 8 libraries, 16 circuits, 16 stages, 32 sessions. *)

val library :
  t -> string option -> (string * Rar_liberty.Liberty.t, string * string) result
(** [library t text] — [None] is the built-in default library. *)

val prepared :
  t ->
  libkey:string ->
  lib:Rar_liberty.Liberty.t ->
  circuit:string option ->
  bench:string option ->
  (string * Rar_circuits.Suite.prepared, string * string) result

val stage :
  t ->
  circuit_key:string ->
  model:Rar_sta.Sta.model ->
  Rar_circuits.Suite.prepared ->
  (string * Rar_retime.Stage.t, string * string) result

val session_key :
  stage_key:string -> cfg:Rar_engine.config -> edits:string option -> string

val take_session : t -> string -> Rar_engine.session option
val put_session : t -> string -> Rar_engine.session -> unit

val stats_json : t -> Rar_util.Json.t
(** Per-cache [{hits; misses; entries; capacity}] — unconditional local
    counts, independent of whether [Rar_obs.Metrics] is armed. *)

val hits : t -> int
(** Total hits across all four layers. *)
