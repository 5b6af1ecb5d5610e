module Json = Rar_util.Json
module Engine = Rar_engine

let req_schema = "rar-req/1"
let resp_schema = "rar-serve/1"

type run_req = {
  circuit : string option;
  bench : string option;
  library : string option;
  config : Engine.config;
  edits : string option;
  deadline_s : float option;
  max_heap_mb : int option;
  want_metrics : bool;
}

type verb = Run of run_req | Ping | Metrics | Shutdown

type request = { id : Json.t; verb : verb }

(* ------------------------------------------------------------------ *)
(* Request parsing                                                     *)
(* ------------------------------------------------------------------ *)

(* Field-typed lookup: a present-but-mistyped field is a request
   error, not a silent default — a client sending ["c": "0.5"] must
   hear about it. *)
let typed what conv key j =
  match Json.member key j with
  | None -> Ok None
  | Some v -> (
    match conv v with
    | Some x -> Ok (Some x)
    | None -> Error (Printf.sprintf "field %S must be a %s" key what))

let str_field = typed "string" Json.to_string_opt
let float_field = typed "number" Json.to_float
let int_field = typed "integer" Json.to_int_opt
let bool_field = typed "boolean" Json.to_bool_opt

let ( let* ) = Result.bind

let parse_run j =
  let* circuit = str_field "circuit" j in
  let* bench = str_field "bench" j in
  let* library = str_field "library" j in
  let* approach_s = str_field "approach" j in
  let* model_s = str_field "model" j in
  let* solver_s = str_field "solver" j in
  let* c = float_field "c" j in
  let* post_swap = bool_field "post_swap" j in
  let* movable_moves = int_field "movable_moves" j in
  let* edits = str_field "edits" j in
  let* deadline_s = float_field "deadline" j in
  let* max_heap_mb = int_field "max_heap_mb" j in
  let* want_metrics = bool_field "metrics" j in
  let* () =
    match (circuit, bench) with
    | Some _, Some _ -> Error "give either \"circuit\" or \"bench\", not both"
    | None, None -> Error "a run request needs a \"circuit\" name or inline \"bench\" text"
    | _ -> Ok ()
  in
  let* approach =
    match approach_s with
    | None -> Ok Engine.Grar
    | Some s -> (
      match Engine.of_name s with
      | Some a -> Ok a
      | None -> Error (Printf.sprintf "unknown approach %S" s))
  in
  let* model =
    match model_s with
    | None -> Ok None
    | Some s -> Result.map Option.some (Engine.model_of_name s)
  in
  let* solver =
    match solver_s with None -> Ok None | Some s -> Engine.solver_of_name s
  in
  let* () =
    match deadline_s with
    | Some d when Float.is_nan d || d < 0. ->
      Error "\"deadline\" must be a non-negative number of seconds"
    | _ -> Ok ()
  in
  let* () =
    match max_heap_mb with
    | Some m when m < 1 -> Error "\"max_heap_mb\" must be >= 1"
    | _ -> Ok ()
  in
  Ok
    (Run
       {
         circuit;
         bench;
         library;
         config =
           Engine.config ?model ?solver ?c ?post_swap ?movable_moves approach;
         edits;
         deadline_s;
         max_heap_mb;
         want_metrics = Option.value want_metrics ~default:false;
       })

let known_fields =
  [
    "schema"; "id"; "verb"; "circuit"; "bench"; "library"; "approach";
    "model"; "solver"; "c"; "post_swap"; "movable_moves"; "edits";
    "deadline"; "max_heap_mb"; "metrics";
  ]

(* Unknown fields are rejected rather than ignored: a typo'd guard
   field ("deadline_s" for "deadline") silently disarming the request's
   deadline is a worse failure mode than a hard bad_request. *)
let check_fields kvs =
  match List.find_opt (fun (k, _) -> not (List.mem k known_fields)) kvs with
  | Some (k, _) -> Error (Printf.sprintf "unknown field %S" k)
  | None -> Ok ()

let parse j =
  match j with
  | Json.Obj kvs ->
    let id = Option.value (Json.member "id" j) ~default:Json.Null in
    let wrap r = Result.map (fun verb -> { id; verb }) r in
    let* () =
      match Json.member "schema" j with
      | None -> Ok ()
      | Some (Json.String s) when s = req_schema -> Ok ()
      | Some (Json.String s) ->
        Error (Printf.sprintf "unsupported schema %S (want %S)" s req_schema)
      | Some _ -> Error "field \"schema\" must be a string"
    in
    let* () = check_fields kvs in
    let* verb_s = str_field "verb" j in
    (match Option.value verb_s ~default:"run" with
    | "run" -> wrap (parse_run j)
    | "ping" -> wrap (Ok Ping)
    | "metrics" -> wrap (Ok Metrics)
    | "shutdown" -> wrap (Ok Shutdown)
    | v -> wrap (Error (Printf.sprintf "unknown verb %S (run|ping|metrics|shutdown)" v)))
  | _ -> Error "a request must be a JSON object"

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)
(* ------------------------------------------------------------------ *)

let envelope ~id ~status ~wall_s rest =
  Json.Obj
    ([
       ("schema", Json.String resp_schema);
       ("id", id);
       ("status", Json.String status);
     ]
    @ rest
    @ [ ("wall_s", Json.Float wall_s) ])

let ok ~id ~wall_s result =
  envelope ~id ~status:"ok" ~wall_s [ ("result", result) ]

let error ~id ~wall_s ~kind ~message =
  envelope ~id ~status:"error" ~wall_s
    [
      ( "error",
        Json.Obj
          [ ("kind", Json.String kind); ("message", Json.String message) ] );
    ]
