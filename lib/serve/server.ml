module Json = Rar_util.Json
module Diag = Rar_util.Diag
module Pool = Rar_util.Pool
module Metrics = Rar_obs.Metrics
module Transform = Rar_netlist.Transform
module Error = Rar_retime.Error
module Engine = Rar_engine

let m_requests = Metrics.counter "serve_requests"
let m_errors = Metrics.counter "serve_errors"
let m_inflight = Metrics.gauge "serve_inflight"

type t = {
  caches : Cache.t;
  stop : bool Atomic.t;
  lock : Mutex.t;  (* guards [pending] and [wakeups] *)
  idle : Condition.t;  (* signalled when [pending] drops to 0 *)
  mutable pending : int;  (* scheduled-but-unanswered run requests *)
  mutable wakeups : (unit -> unit) list;  (* unblock transports on stop *)
  started_at : float;
}

let create () =
  {
    caches = Cache.create ();
    stop = Atomic.make false;
    lock = Mutex.create ();
    idle = Condition.create ();
    pending = 0;
    wakeups = [];
    started_at = Unix.gettimeofday ();
  }

let caches t = t.caches
let stopping t = Atomic.get t.stop
let uptime_s t = Unix.gettimeofday () -. t.started_at

(* Async-signal-safe half of shutdown: a handler may only flip the
   atomic (taking [t.lock] from a handler could deadlock against the
   interrupted thread). The EINTR the signal caused unblocks the
   transport's read/accept, which notices the flag and runs the full
   [initiate_shutdown] from a normal context. *)
let signal_stop t = Atomic.set t.stop true

let on_shutdown t f =
  Mutex.lock t.lock;
  t.wakeups <- f :: t.wakeups;
  Mutex.unlock t.lock

let initiate_shutdown t =
  Atomic.set t.stop true;
  Mutex.lock t.lock;
  let ws = t.wakeups in
  t.wakeups <- [];
  Mutex.unlock t.lock;
  List.iter (fun f -> try f () with _ -> ()) ws

let drain t =
  Mutex.lock t.lock;
  while t.pending > 0 do
    Condition.wait t.idle t.lock
  done;
  Mutex.unlock t.lock

(* ------------------------------------------------------------------ *)
(* Run-request execution                                               *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

(* The whole pipeline — library parse, circuit preparation, stage
   analysis, engine run — executes on a pool worker under the
   request's guard token; every layer answers with a [(kind, message)]
   pair and anything that escapes is classified by [Guard.classify] in
   the scheduler below. *)
let exec_run t (req : Protocol.run_req) =
  let caches = t.caches in
  let* libkey, lib = Cache.library caches req.library in
  let* circuit_key, prep =
    Cache.prepared caches ~libkey ~lib ~circuit:req.circuit ~bench:req.bench
  in
  let cfg = req.config in
  let* batches =
    match req.edits with
    | None -> Ok []
    | Some text -> (
      match Transform.Edit.parse_script text with
      | Ok b -> Ok b
      | Error e -> Error ("invalid_input", e))
  in
  let* stage_key, stage =
    Cache.stage caches ~circuit_key ~model:cfg.Engine.model prep
  in
  let token =
    Guard.token
      { deadline_s = req.deadline_s; max_heap_mb = req.max_heap_mb }
  in
  let circuit = Option.value req.circuit ~default:"bench" in
  let finish cfg' (res : Engine.result) =
    let metrics =
      if req.want_metrics then Some (Metrics.snapshot_json ()) else None
    in
    Ok (Engine.result_json ~circuit ?metrics cfg' res)
  in
  let engine_error e = Error (Guard.kind_of_error e, Error.to_string e) in
  match cfg.Engine.spec with
  | Engine.Movable ->
    (* The movable engine rewires the two-phase netlist per move, so
       it cannot hold a warm session, and it never reads an LP solve
       cache: each request solves cold. *)
    if batches <> [] then
      Error ("invalid_input", "the movable engine cannot resolve edit scripts")
    else (
      match Engine.run ~deadline:token cfg stage with
      | Ok res -> finish cfg res
      | Error e -> engine_error e)
  | Engine.Initial | Engine.Base | Engine.Grar | Engine.Vl _ ->
    (* Session checkout: a warm session cached under the request's
       final state (stage x config x edit-script digest) resolves the
       empty batch — the LP solve cache replays and the incremental
       stage is already in place. A miss opens a fresh session over
       the (cached, shared, read-only) stage and applies the edit
       batches in order. *)
    let key = Cache.session_key ~stage_key ~cfg ~edits:req.edits in
    let sess, batches =
      match Cache.take_session caches key with
      | Some s -> (s, [ [] ])
      | None ->
        ( Engine.open_session cfg stage,
          if batches = [] then [ [] ] else batches )
    in
    let rec loop last = function
      | [] ->
        Cache.put_session caches key sess;
        finish (Engine.session_config sess) last
      | b :: rest -> (
        match Engine.resolve ~deadline:token sess b with
        | Ok res -> loop res rest
        | Error e ->
          (* Failed mid-script: the session's state reflects only the
             batches that succeeded, which no cache key describes —
             drop it rather than check in a mislabelled session. *)
          engine_error e)
    in
    (match Engine.resolve ~deadline:token sess (List.hd batches) with
    | Ok res -> loop res (List.tl batches)
    | Error e -> engine_error e)

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)
(* ------------------------------------------------------------------ *)

let since start = Unix.gettimeofday () -. start

let ping_json t =
  Json.Obj
    [
      ("pong", Json.Bool true);
      ("pid", Json.Int (Unix.getpid ()));
      ("uptime_s", Json.Float (uptime_s t));
    ]

let metrics_json t =
  let base =
    [
      ("caches", Cache.stats_json t.caches);
      ("cache_hits_total", Json.Int (Cache.hits t.caches));
      ("inflight", Json.Int t.pending);
      ("uptime_s", Json.Float (uptime_s t));
    ]
  in
  let base =
    if Metrics.enabled () then base @ [ ("metrics", Metrics.snapshot_json ()) ]
    else base
  in
  Json.Obj base

let schedule t ~sink ~acquire ~release ~id ~start (req : Protocol.run_req) =
  if stopping t then (
    Metrics.incr m_errors;
    sink
      (Json.to_string
         (Protocol.error ~id ~wall_s:(since start) ~kind:"cancelled"
            ~message:"server is draining")))
  else (
    Mutex.lock t.lock;
    t.pending <- t.pending + 1;
    Metrics.set m_inflight t.pending;
    Mutex.unlock t.lock;
    acquire ();
    Pool.submit (fun () ->
        Fun.protect
          ~finally:(fun () ->
            release ();
            Mutex.lock t.lock;
            t.pending <- t.pending - 1;
            Metrics.set m_inflight t.pending;
            if t.pending = 0 then Condition.broadcast t.idle;
            Mutex.unlock t.lock)
          (fun () ->
            let resp =
              match exec_run t req with
              | Ok result -> Protocol.ok ~id ~wall_s:(since start) result
              | Error (kind, message) ->
                Metrics.incr m_errors;
                Protocol.error ~id ~wall_s:(since start) ~kind ~message
              | exception e ->
                Metrics.incr m_errors;
                let kind, message = Guard.classify e in
                Protocol.error ~id ~wall_s:(since start) ~kind ~message
            in
            (* The peer may be gone (connection closed mid-drain); a
               failed write must not take the worker down. *)
            try sink (Json.to_string resp) with _ -> ())))

let handle_line ?(acquire = ignore) ?(release = ignore) t ~sink line =
  let start = Unix.gettimeofday () in
  Metrics.incr m_requests;
  let answer resp = sink (Json.to_string resp) in
  let fail ~id ~kind ~message =
    Metrics.incr m_errors;
    answer (Protocol.error ~id ~wall_s:(since start) ~kind ~message)
  in
  match Json.of_string_diag line with
  | Error d -> fail ~id:Json.Null ~kind:"parse" ~message:(Diag.to_string d)
  | Ok j -> (
    let id =
      match j with
      | Json.Obj _ -> Option.value (Json.member "id" j) ~default:Json.Null
      | _ -> Json.Null
    in
    match Protocol.parse j with
    | Error message -> fail ~id ~kind:"bad_request" ~message
    | Ok { Protocol.id; verb = Protocol.Ping } ->
      answer (Protocol.ok ~id ~wall_s:(since start) (ping_json t))
    | Ok { Protocol.id; verb = Protocol.Metrics } ->
      answer (Protocol.ok ~id ~wall_s:(since start) (metrics_json t))
    | Ok { Protocol.id; verb = Protocol.Shutdown } ->
      answer
        (Protocol.ok ~id ~wall_s:(since start)
           (Json.Obj [ ("draining", Json.Int t.pending) ]));
      initiate_shutdown t
    | Ok { Protocol.id; verb = Protocol.Run req } ->
      schedule t ~sink ~acquire ~release ~id ~start req)

(* ------------------------------------------------------------------ *)
(* Transports                                                          *)
(* ------------------------------------------------------------------ *)

(* Buffered line reader over [Unix.read]: EINTR-aware so a signal
   lands between reads (the handler sets the stop flag, the retry
   notices it), instead of being invisible inside a blocked
   [input_line]. *)
type reader = {
  fd : Unix.file_descr;
  chunk : Bytes.t;
  buf : Buffer.t;
  q : string Queue.t;
}

let reader fd =
  { fd; chunk = Bytes.create 8192; buf = Buffer.create 256; q = Queue.create () }

let rec read_line t r =
  if not (Queue.is_empty r.q) then Some (Queue.pop r.q)
  else if stopping t then None
  else
    match Unix.read r.fd r.chunk 0 (Bytes.length r.chunk) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_line t r
    | exception _ -> None (* fd shut down under us during drain *)
    | 0 ->
      if Buffer.length r.buf > 0 then (
        let l = Buffer.contents r.buf in
        Buffer.clear r.buf;
        Some l)
      else None
    | n ->
      for i = 0 to n - 1 do
        let c = Bytes.get r.chunk i in
        if c = '\n' then (
          Queue.add (Buffer.contents r.buf) r.q;
          Buffer.clear r.buf)
        else Buffer.add_char r.buf c
      done;
      read_line t r

let blank line = String.trim line = ""

let serve_stdio t =
  let out_lock = Mutex.create () in
  let sink line =
    Mutex.lock out_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock out_lock)
      (fun () ->
        print_string line;
        print_newline ();
        flush stdout)
  in
  let r = reader Unix.stdin in
  let rec loop () =
    match read_line t r with
    | None -> ()
    | Some line ->
      if not (blank line) then handle_line t ~sink line;
      if stopping t then () else loop ()
  in
  loop ();
  initiate_shutdown t;
  drain t

(* Unix-domain-socket transport: the main thread accepts, one
   [Thread] per connection shares the server state. A connection's fd
   is refcounted (the reader thread plus every scheduled response),
   so a response completing after the client hung up writes into a
   closed-and-invalidated fd, never a recycled one. *)
type conn = {
  c_fd : Unix.file_descr;
  c_out : Mutex.t;
  c_refs : Mutex.t;
  mutable c_live : int;
}

let conn_retain c =
  Mutex.lock c.c_refs;
  c.c_live <- c.c_live + 1;
  Mutex.unlock c.c_refs

let conn_release c =
  Mutex.lock c.c_refs;
  c.c_live <- c.c_live - 1;
  let last = c.c_live = 0 in
  Mutex.unlock c.c_refs;
  if last then try Unix.close c.c_fd with _ -> ()

let conn_sink c line =
  Mutex.lock c.c_out;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock c.c_out)
    (fun () ->
      let data = Bytes.of_string (line ^ "\n") in
      let len = Bytes.length data in
      let off = ref 0 in
      while !off < len do
        let n = Unix.write c.c_fd data !off (len - !off) in
        off := !off + n
      done)

let serve_socket t ~path =
  (try Unix.unlink path with _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX path);
  Unix.listen listen_fd 16;
  let conns : (int, conn) Hashtbl.t = Hashtbl.create 8 in
  let conns_lock = Mutex.create () in
  on_shutdown t (fun () ->
      (* [shutdown] (not just [close]) on the listener: a close from
         this thread leaves the accept thread blocked forever, while a
         shutdown forces its [accept] to return with an error. *)
      (try Unix.shutdown listen_fd Unix.SHUTDOWN_RECEIVE with _ -> ());
      (try Unix.close listen_fd with _ -> ());
      Mutex.lock conns_lock;
      Hashtbl.iter
        (fun _ c -> try Unix.shutdown c.c_fd Unix.SHUTDOWN_RECEIVE with _ -> ())
        conns;
      Mutex.unlock conns_lock);
  let next = ref 0 in
  let threads = ref [] in
  let handle_conn cid c =
    let r = reader c.c_fd in
    let sink = conn_sink c in
    let acquire () = conn_retain c in
    let release () = conn_release c in
    let rec loop () =
      match read_line t r with
      | None -> ()
      | Some line ->
        if not (blank line) then handle_line t ~acquire ~release ~sink line;
        if stopping t then () else loop ()
    in
    (try loop () with _ -> ());
    Mutex.lock conns_lock;
    Hashtbl.remove conns cid;
    Mutex.unlock conns_lock;
    conn_release c (* drop the reader's reference *)
  in
  let rec accept_loop () =
    if stopping t then ()
    else
      match Unix.accept listen_fd with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
      | exception _ -> () (* listener closed by shutdown *)
      | fd, _ ->
        let c =
          { c_fd = fd; c_out = Mutex.create (); c_refs = Mutex.create (); c_live = 1 }
        in
        incr next;
        let cid = !next in
        Mutex.lock conns_lock;
        Hashtbl.add conns cid c;
        Mutex.unlock conns_lock;
        threads := Thread.create (fun () -> handle_conn cid c) () :: !threads;
        accept_loop ()
  in
  accept_loop ();
  initiate_shutdown t;
  List.iter Thread.join !threads;
  drain t;
  try Unix.unlink path with _ -> ()
