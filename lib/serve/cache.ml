module Diag = Rar_util.Diag
module Liberty = Rar_liberty.Liberty
module Liberty_io = Rar_liberty.Liberty_io
module Bench_io = Rar_netlist.Bench_io
module Suite = Rar_circuits.Suite
module Sta = Rar_sta.Sta
module Stage = Rar_retime.Stage
module Error = Rar_retime.Error
module Engine = Rar_engine

type t = {
  libs : Liberty.t Lru.t;
  prepared : Suite.prepared Lru.t;
  stages : Stage.t Lru.t;
  sessions : Engine.session Lru.t;
}

let create () =
  {
    libs = Lru.create ~name:"libs" ~capacity:8;
    prepared = Lru.create ~name:"circuits" ~capacity:16;
    stages = Lru.create ~name:"stages" ~capacity:16;
    sessions = Lru.create ~name:"sessions" ~capacity:32;
  }

let digest s = Digest.to_hex (Digest.string s)

(* Each loader returns [(key, value)] so downstream cache keys can
   chain off upstream content hashes, or a structured [(kind, message)]
   pair the server can answer with. *)

let library t = function
  | None -> (
    let key = "builtin" in
    match Lru.find t.libs key with
    | Some lib -> Ok (key, lib)
    | None ->
      let lib = Liberty.default () in
      Lru.put t.libs key lib;
      Ok (key, lib))
  | Some text -> (
    let key = "lib:" ^ digest text in
    match Lru.find t.libs key with
    | Some lib -> Ok (key, lib)
    | None -> (
      match Liberty_io.parse_diag text with
      | Ok lib ->
        Lru.put t.libs key lib;
        Ok (key, lib)
      | Error d -> Error ("bad_library", Diag.to_string d)))

let prepared t ~libkey ~lib ~circuit ~bench =
  match (circuit, bench) with
  | Some name, _ -> (
    let key =
      Printf.sprintf "suite:%s:%s" (String.lowercase_ascii name) libkey
    in
    match Lru.find t.prepared key with
    | Some p -> Ok (key, p)
    | None -> (
      match Suite.load ~lib name with
      | Ok p ->
        Lru.put t.prepared key p;
        Ok (key, p)
      | Error e -> Error ("unknown_circuit", e)))
  | None, Some text -> (
    let key = Printf.sprintf "bench:%s:%s" (digest text) libkey in
    match Lru.find t.prepared key with
    | Some p -> Ok (key, p)
    | None -> (
      match Bench_io.parse_diag text with
      | Error d -> Error ("bad_netlist", Diag.to_string d)
      | Ok net ->
        let p = Suite.prepare ~lib net in
        Lru.put t.prepared key p;
        Ok (key, p)))
  | None, None -> Error ("invalid_input", "no circuit or bench text")

(* A [Stage.t] is read-only after [make] (its lazy STA memos are forced
   or lock-guarded), so one cached stage serves concurrent requests. *)
let stage t ~circuit_key ~model (p : Suite.prepared) =
  let key = circuit_key ^ "|" ^ Engine.model_name model in
  match Lru.find t.stages key with
  | Some s -> Ok (key, s)
  | None -> (
    match Engine.stage_of ~model p with
    | Ok s ->
      Lru.put t.stages key s;
      Ok (key, s)
    | Error e -> Error (Error.kind e, Error.to_string e))

(* Sessions are keyed by their *final* state — stage, config, and the
   digest of the cumulative edit script — and checked out with [take]
   (single-owner: a session must never be shared between concurrent
   requests; a concurrent identical request simply misses and rebuilds
   from the stage cache). *)

let session_key ~stage_key ~cfg ~edits =
  Printf.sprintf "%s|%s|%s" stage_key
    (Engine.config_key cfg)
    (match edits with None -> "noedits" | Some text -> "edits:" ^ digest text)

let take_session t key = Lru.take t.sessions key
let put_session t key s = Lru.put t.sessions key s

let stats_json t =
  let cache_json c =
    let hits, misses = Lru.stats c in
    Rar_util.Json.Obj
      [
        ("hits", Rar_util.Json.Int hits);
        ("misses", Rar_util.Json.Int misses);
        ("entries", Rar_util.Json.Int (Lru.length c));
        ("capacity", Rar_util.Json.Int (Lru.capacity c));
      ]
  in
  Rar_util.Json.Obj
    [
      ("libs", cache_json t.libs);
      ("circuits", cache_json t.prepared);
      ("stages", cache_json t.stages);
      ("sessions", cache_json t.sessions);
    ]

let hits t =
  let h c = fst (Lru.stats c) in
  h t.libs + h t.prepared + h t.stages + h t.sessions
