(* The serve layer: protocol parsing, the LRU caches, per-request
   guards, and the server core's fault-isolation contract — every
   request line gets exactly one structured response, and a request
   that fails (parse error, bad input, deadline, injected fault) never
   takes the server or a concurrent request with it. Tests drive
   [Server.handle_line] directly with a collecting sink, so the full
   scheduling path (pool submission, guard tokens, caches) runs
   without any transport. *)

module Json = Rar_util.Json
module Deadline = Rar_util.Deadline
module Faults = Rar_resilience.Faults
module Generator = Rar_circuits.Generator
module Spec = Rar_circuits.Spec
module Bench_io = Rar_netlist.Bench_io
module Error = Rar_retime.Error
module Engine = Rar_engine
module Lru = Rar_serve.Lru
module Guard = Rar_serve.Guard
module Protocol = Rar_serve.Protocol
module Server = Rar_serve.Server

let without_faults f =
  Faults.disable ();
  Fun.protect ~finally:Faults.use_env f

let with_faults ?seed profiles f =
  Faults.configure ?seed profiles;
  Fun.protect ~finally:Faults.use_env f

(* A small flop-based circuit as inline ".bench" text — requests carry
   it in the [bench] field, exercising the content-hash keying. *)
let bench_text =
  let spec =
    {
      Spec.name = "serve";
      n_flops = 12;
      n_pi = 4;
      n_po = 4;
      n_gates = 120;
      depth = 7;
      nce_target = 4;
      seed = "serve-test";
      src_bias_pct = 55;
    }
  in
  Bench_io.print (Generator.generate spec)

(* A bigger one, for requests that must hit deadline check sites. *)
let big_bench_text =
  let spec =
    {
      Spec.name = "serve-big";
      n_flops = 40;
      n_pi = 8;
      n_po = 8;
      n_gates = 1500;
      depth = 12;
      nce_target = 8;
      seed = "serve-test-big";
      src_bias_pct = 55;
    }
  in
  Bench_io.print (Generator.generate spec)

(* --- driving the server core --------------------------------------- *)

let make_sink () =
  let lock = Mutex.create () in
  let lines = ref [] in
  let sink l =
    Mutex.lock lock;
    lines := l :: !lines;
    Mutex.unlock lock
  in
  let collected () =
    Mutex.lock lock;
    let r = List.rev !lines in
    Mutex.unlock lock;
    r
  in
  (sink, collected)

(* Send request lines, wait for every scheduled response, return the
   parsed responses in arrival order. *)
let rpc server reqs =
  let sink, collected = make_sink () in
  List.iter (fun line -> Server.handle_line server ~sink line) reqs;
  Server.drain server;
  List.map
    (fun l ->
      match Json.of_string l with
      | Ok j -> j
      | Error e -> Alcotest.failf "response is not JSON (%s): %s" e l)
    (collected ())

let field name j =
  match Json.member name j with
  | Some v -> v
  | None -> Alcotest.failf "response lacks %S: %s" name (Json.to_string j)

let status j =
  match field "status" j with
  | Json.String s -> s
  | _ -> Alcotest.fail "status is not a string"

let error_kind j =
  match Json.member "kind" (field "error" j) with
  | Some (Json.String k) -> k
  | _ -> Alcotest.failf "no error kind in %s" (Json.to_string j)

let response_id j = field "id" j

(* Responses stream in completion order; match them back by id. *)
let by_id responses id =
  match
    List.find_opt (fun j -> response_id j = Json.String id) responses
  with
  | Some j -> j
  | None -> Alcotest.failf "no response with id %S" id

let run_req ?(approach = "grar") ?deadline ?max_heap_mb ~id () =
  let extra =
    (match deadline with
    | Some d -> [ ("deadline", Json.Float d) ]
    | None -> [])
    @
    match max_heap_mb with
    | Some m -> [ ("max_heap_mb", Json.Int m) ]
    | None -> []
  in
  Json.to_string
    (Json.Obj
       ([
          ("schema", Json.String "rar-req/1");
          ("id", Json.String id);
          ("bench", Json.String bench_text);
          ("approach", Json.String approach);
        ]
       @ extra))

(* --- protocol ------------------------------------------------------ *)

let parse_req s =
  match Json.of_string s with
  | Error e -> Alcotest.fail e
  | Ok j -> Protocol.parse j

let test_protocol_defaults () =
  match parse_req {|{"id":7,"circuit":"s1196"}|} with
  | Error e -> Alcotest.fail e
  | Ok { Protocol.id; verb = Protocol.Run r } ->
    Alcotest.(check bool) "id echoed" true (id = Json.Int 7);
    let cfg = r.Protocol.config in
    Alcotest.(check bool) "grar default" true (cfg.Engine.spec = Engine.Grar);
    Alcotest.(check (float 0.)) "c default" 1.0 cfg.Engine.c;
    Alcotest.(check bool) "post_swap default" true cfg.Engine.post_swap;
    Alcotest.(check int) "movable_moves default" 6 cfg.Engine.movable_moves;
    Alcotest.(check bool) "no deadline" true (r.Protocol.deadline_s = None)
  | Ok _ -> Alcotest.fail "expected a run request"

let expect_req_error what s =
  match parse_req s with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s must be rejected" what

let test_protocol_rejects () =
  expect_req_error "mistyped c" {|{"circuit":"x","c":"0.5"}|};
  expect_req_error "both circuit and bench" {|{"circuit":"x","bench":"y"}|};
  expect_req_error "neither circuit nor bench" {|{"verb":"run"}|};
  expect_req_error "unknown verb" {|{"verb":"nope"}|};
  expect_req_error "unknown approach" {|{"circuit":"x","approach":"magic"}|};
  expect_req_error "negative deadline" {|{"circuit":"x","deadline":-1}|};
  expect_req_error "bad schema" {|{"schema":"rar-req/9","verb":"ping"}|};
  expect_req_error "non-object" {|[1,2]|};
  (* A typo'd field must be a hard error, not a silently disarmed
     guard: "deadline_s" for "deadline" would otherwise run unbounded. *)
  expect_req_error "unknown field" {|{"circuit":"x","deadline_s":0.5}|}

let test_protocol_verbs () =
  (match parse_req {|{"verb":"ping"}|} with
  | Ok { Protocol.verb = Protocol.Ping; id } ->
    Alcotest.(check bool) "missing id is null" true (id = Json.Null)
  | _ -> Alcotest.fail "ping");
  (match parse_req {|{"verb":"metrics","id":"m"}|} with
  | Ok { Protocol.verb = Protocol.Metrics; _ } -> ()
  | _ -> Alcotest.fail "metrics");
  match parse_req {|{"verb":"shutdown"}|} with
  | Ok { Protocol.verb = Protocol.Shutdown; _ } -> ()
  | _ -> Alcotest.fail "shutdown"

(* --- lru ----------------------------------------------------------- *)

let test_lru_basics () =
  let c = Lru.create ~name:"t1" ~capacity:2 in
  Lru.put c "a" 1;
  Lru.put c "b" 2;
  Alcotest.(check (option int)) "find a" (Some 1) (Lru.find c "a");
  (* "b" is now least-recently-used; inserting "c" evicts it *)
  Lru.put c "c" 3;
  Alcotest.(check (option int)) "b evicted" None (Lru.find c "b");
  Alcotest.(check (option int)) "a kept" (Some 1) (Lru.find c "a");
  Alcotest.(check (option int)) "c kept" (Some 3) (Lru.find c "c");
  Alcotest.(check int) "bounded" 2 (Lru.length c);
  let hits, misses = Lru.stats c in
  Alcotest.(check int) "hits" 3 hits;
  Alcotest.(check int) "misses" 1 misses

let test_lru_take_checkout () =
  let c = Lru.create ~name:"t2" ~capacity:4 in
  Lru.put c "s" 42;
  Alcotest.(check (option int)) "take returns" (Some 42) (Lru.take c "s");
  Alcotest.(check (option int)) "taken is gone" None (Lru.take c "s");
  Lru.put c "s" 43;
  Alcotest.(check (option int)) "put back" (Some 43) (Lru.find c "s")

let test_lru_rejects_zero_capacity () =
  match Lru.create ~name:"t3" ~capacity:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "capacity 0 must be rejected"

(* --- guard --------------------------------------------------------- *)

let test_guard_classify () =
  let k e = fst (Guard.classify e) in
  Alcotest.(check string) "timeout" "timeout"
    (k (Deadline.Expired { elapsed = 1.; phase = "netsimplex" }));
  Alcotest.(check string) "cancel" "cancelled"
    (k (Deadline.Expired { elapsed = 1.; phase = "cancel:sigint" }));
  Alcotest.(check string) "heap" "memory"
    (k (Guard.Heap_exceeded { heap_mb = 9; limit_mb = 1 }));
  Alcotest.(check string) "oom" "memory" (k Out_of_memory);
  Alcotest.(check string) "fault" "worker_crashed" (k (Faults.Injected "x"));
  Alcotest.(check string) "other" "internal" (k (Failure "boom"));
  Alcotest.(check string) "error kind passthrough" "timeout"
    (Guard.kind_of_error (Error.Timeout { elapsed = 1.; phase = "p" }));
  Alcotest.(check string) "error cancel kind" "cancelled"
    (Guard.kind_of_error (Error.Timeout { elapsed = 1.; phase = "cancel:drain" }))

let test_guard_heap_ceiling () =
  (* Pin enough live data that the major heap is certainly above 1 MB,
     then sample the token: the heap hook must trip. *)
  let keep = Array.init 512 (fun _ -> Array.make 1024 0.0) in
  Gc.full_major ();
  let token = Guard.token { deadline_s = None; max_heap_mb = Some 1 } in
  (match Deadline.force_check token ~phase:"test" with
  | exception Guard.Heap_exceeded { heap_mb; limit_mb } ->
    Alcotest.(check int) "limit echoed" 1 limit_mb;
    Alcotest.(check bool) "measured above limit" true (heap_mb > 1)
  | () -> Alcotest.fail "heap ceiling must trip");
  ignore (Array.length keep);
  (* without a ceiling the same token never trips *)
  let free = Guard.token { deadline_s = None; max_heap_mb = None } in
  Deadline.force_check free ~phase:"test"

(* --- server core --------------------------------------------------- *)

let test_server_malformed_and_admin () =
  without_faults @@ fun () ->
  let s = Server.create () in
  let rs =
    rpc s
      [
        "this is not json";
        {|{"id":"p","verb":"ping"}|};
        {|[1,2,3]|};
        {|{"id":"bad","verb":"frobnicate"}|};
        {|{"id":"m","verb":"metrics"}|};
      ]
  in
  Alcotest.(check int) "one response per line" 5 (List.length rs);
  let parse_errors =
    List.filter (fun j -> status j = "error" && error_kind j = "parse") rs
  in
  Alcotest.(check int) "malformed line -> parse error" 1
    (List.length parse_errors);
  let ping = by_id rs "p" in
  Alcotest.(check string) "ping ok" "ok" (status ping);
  (match Json.member "pong" (field "result" ping) with
  | Some (Json.Bool true) -> ()
  | _ -> Alcotest.fail "ping result lacks pong");
  Alcotest.(check string) "unknown verb" "error" (status (by_id rs "bad"));
  Alcotest.(check string) "bad_request kind" "bad_request"
    (error_kind (by_id rs "bad"));
  let m = by_id rs "m" in
  Alcotest.(check string) "metrics ok" "ok" (status m);
  match Json.member "caches" (field "result" m) with
  | Some (Json.Obj _) -> ()
  | _ -> Alcotest.fail "metrics result lacks caches"

let test_server_run_and_warm_cache () =
  without_faults @@ fun () ->
  let s = Server.create () in
  let strip j =
    match field "result" j with
    | Json.Obj fields ->
      Json.to_string
        (Json.Obj (List.filter (fun (k, _) -> k <> "wall_s") fields))
    | j -> Json.to_string j
  in
  (* sequential identical requests: the second must check the warm
     session out of the cache and produce the identical document *)
  let cold = by_id (rpc s [ run_req ~id:"cold" () ]) "cold" in
  let warm = by_id (rpc s [ run_req ~id:"warm" () ]) "warm" in
  Alcotest.(check string) "cold ok" "ok" (status cold);
  Alcotest.(check string) "warm ok" "ok" (status warm);
  Alcotest.(check string) "identical modulo wall_s" (strip cold) (strip warm);
  (match field "result" cold with
  | Json.Obj fields ->
    Alcotest.(check bool) "rar-run/1 schema" true
      (List.assoc_opt "schema" fields = Some (Json.String "rar-run/1"))
  | _ -> Alcotest.fail "run result is not an object");
  let m = by_id (rpc s [ {|{"id":"m","verb":"metrics"}|} ]) "m" in
  (match Json.member "sessions" (field "caches" (field "result" m)) with
  | Some sessions -> (
    match Json.member "hits" sessions with
    | Some (Json.Int h) ->
      Alcotest.(check bool) "session cache hit recorded" true (h >= 1)
    | _ -> Alcotest.fail "no session hit counter")
  | None -> Alcotest.fail "no sessions cache in metrics");
  match Json.member "cache_hits_total" (field "result" m) with
  | Some (Json.Int n) ->
    Alcotest.(check bool) "aggregate hits positive" true (n > 0)
  | _ -> Alcotest.fail "no cache_hits_total"

let test_server_fault_isolation () =
  without_faults @@ fun () ->
  let s = Server.create () in
  (* one deliberately timing out, one unknown circuit, one healthy —
     all in flight together; each gets its own structured answer *)
  let rs =
    rpc s
      [
        Json.to_string
          (Json.Obj
             [
               ("id", Json.String "slow");
               ("bench", Json.String big_bench_text);
               ("deadline", Json.Float 0.0);
             ]);
        {|{"id":"lost","circuit":"no-such-circuit"}|};
        run_req ~id:"fine" ();
      ]
  in
  Alcotest.(check int) "three responses" 3 (List.length rs);
  let slow = by_id rs "slow" in
  Alcotest.(check string) "timeout is an error" "error" (status slow);
  Alcotest.(check string) "timeout kind" "timeout" (error_kind slow);
  Alcotest.(check string) "unknown circuit kind" "unknown_circuit"
    (error_kind (by_id rs "lost"));
  Alcotest.(check string) "healthy request unaffected" "ok"
    (status (by_id rs "fine"))

let test_server_survives_poolkill () =
  without_faults @@ fun () ->
  let s = Server.create () in
  (* warm the caches clean first *)
  let r0 = by_id (rpc s [ run_req ~id:"w" () ]) "w" in
  Alcotest.(check string) "clean warmup" "ok" (status r0);
  (* the killed request must run an engine cold: a warm session replay
     is served from the caches and legitimately skips injection, so use
     an approach the warmup did not cache *)
  with_faults ~seed:11 [ Faults.Poolkill ] (fun () ->
      let r =
        by_id (rpc s [ run_req ~approach:"rvl" ~id:"killed" () ]) "killed"
      in
      Alcotest.(check string) "injected fault is an error" "error" (status r);
      Alcotest.(check string) "worker_crashed kind" "worker_crashed"
        (error_kind r));
  (* the server and its caches survive the injected crash *)
  let r1 = by_id (rpc s [ run_req ~approach:"rvl" ~id:"after" () ]) "after" in
  Alcotest.(check string) "server survives" "ok" (status r1)

let test_server_drain_cancels_inflight () =
  without_faults @@ fun () ->
  let s = Server.create () in
  (* a pending global cancel (the SIGINT/SIGTERM drain path) turns an
     in-flight solve into a structured "cancelled" answer *)
  Deadline.request_cancel ~reason:"drain-test";
  Fun.protect ~finally:Deadline.clear_cancel (fun () ->
      let r =
        by_id
          (rpc s
             [
               Json.to_string
                 (Json.Obj
                    [
                      ("id", Json.String "c");
                      ("bench", Json.String big_bench_text);
                    ]);
             ])
          "c"
      in
      Alcotest.(check string) "cancelled is an error" "error" (status r);
      Alcotest.(check string) "cancelled kind" "cancelled" (error_kind r))

(* Two requests whose c differs only in the seventh decimal are two
   configs: the second must open its own session and echo its own c. *)
let test_server_exact_c () =
  without_faults @@ fun () ->
  let s = Server.create () in
  let req id c =
    Json.to_string
      (Json.Obj
         [
           ("id", Json.String id);
           ("bench", Json.String bench_text);
           ("approach", Json.String "grar");
           ("c", Json.Float c);
         ])
  in
  let session_misses () =
    let m = by_id (rpc s [ {|{"id":"m","verb":"metrics"}|} ]) "m" in
    match
      Json.member_int "misses"
        (field "sessions" (field "caches" (field "result" m)))
    with
    | Some n -> n
    | None -> Alcotest.fail "no sessions miss counter"
  in
  let echoed_c r =
    Json.member_float "c" (field "config" (field "result" r))
  in
  let a = by_id (rpc s [ req "c1" 1.0 ]) "c1" in
  let misses = session_misses () in
  let b = by_id (rpc s [ req "c2" 1.0000001 ]) "c2" in
  Alcotest.(check string) "c = 1 ok" "ok" (status a);
  Alcotest.(check string) "c = 1.0000001 ok" "ok" (status b);
  Alcotest.(check (option (float 0.))) "first echoes c = 1" (Some 1.0)
    (echoed_c a);
  Alcotest.(check (option (float 0.))) "second echoes its own c"
    (Some 1.0000001) (echoed_c b);
  Alcotest.(check int) "second misses the sessions cache" (misses + 1)
    (session_misses ())

let test_server_shutdown_rejects_new_work () =
  without_faults @@ fun () ->
  let s = Server.create () in
  let rs = rpc s [ {|{"id":"bye","verb":"shutdown"}|} ] in
  Alcotest.(check string) "shutdown acknowledged" "ok"
    (status (by_id rs "bye"));
  Alcotest.(check bool) "server stopping" true (Server.stopping s);
  let r = by_id (rpc s [ run_req ~id:"late" () ]) "late" in
  Alcotest.(check string) "late request refused" "error" (status r);
  Alcotest.(check string) "refused as cancelled" "cancelled" (error_kind r)

let test_server_movable_and_edits () =
  without_faults @@ fun () ->
  let s = Server.create () in
  (* an edit script rides along with the request; the warm replay of
     the same request must reproduce the same final document *)
  let req id =
    Json.to_string
      (Json.Obj
         [
           ("id", Json.String id);
           ("bench", Json.String bench_text);
           ("approach", Json.String "base");
           ("edits", Json.String "c 1.5\ncommit\n");
         ])
  in
  let strip j =
    match field "result" j with
    | Json.Obj fields ->
      Json.to_string
        (Json.Obj
           (List.filter
              (fun (k, _) -> k <> "wall_s" && k <> "solver_events")
              fields))
    | j -> Json.to_string j
  in
  let a = by_id (rpc s [ req "e1" ]) "e1" in
  let b = by_id (rpc s [ req "e2" ]) "e2" in
  Alcotest.(check string) "edited run ok" "ok" (status a);
  Alcotest.(check string) "warm edited run ok" "ok" (status b);
  Alcotest.(check string) "edited runs identical" (strip a) (strip b);
  (* movable cannot hold a session nor resolve edits *)
  let r =
    by_id
      (rpc s
         [
           Json.to_string
             (Json.Obj
                [
                  ("id", Json.String "mv");
                  ("bench", Json.String bench_text);
                  ("approach", Json.String "movable");
                  ("edits", Json.String "c 1.5\ncommit\n");
                ]);
         ])
      "mv"
  in
  Alcotest.(check string) "movable+edits refused" "error" (status r);
  Alcotest.(check string) "as invalid_input" "invalid_input" (error_kind r)

let suite =
  [
    Alcotest.test_case "protocol defaults" `Quick test_protocol_defaults;
    Alcotest.test_case "protocol rejects bad requests" `Quick
      test_protocol_rejects;
    Alcotest.test_case "protocol admin verbs" `Quick test_protocol_verbs;
    Alcotest.test_case "lru basics and eviction" `Quick test_lru_basics;
    Alcotest.test_case "lru take checkout" `Quick test_lru_take_checkout;
    Alcotest.test_case "lru rejects zero capacity" `Quick
      test_lru_rejects_zero_capacity;
    Alcotest.test_case "guard classification is total" `Quick
      test_guard_classify;
    Alcotest.test_case "guard heap ceiling" `Quick test_guard_heap_ceiling;
    Alcotest.test_case "malformed lines and admin verbs" `Quick
      test_server_malformed_and_admin;
    Alcotest.test_case "run requests and warm cache" `Slow
      test_server_run_and_warm_cache;
    Alcotest.test_case "faulted requests are isolated" `Slow
      test_server_fault_isolation;
    Alcotest.test_case "server survives poolkill" `Slow
      test_server_survives_poolkill;
    Alcotest.test_case "drain cancels in-flight work" `Slow
      test_server_drain_cancels_inflight;
    Alcotest.test_case "c keys sessions exactly" `Slow test_server_exact_c;
    Alcotest.test_case "shutdown rejects new work" `Quick
      test_server_shutdown_rejects_new_work;
    Alcotest.test_case "edit scripts and movable limits" `Slow
      test_server_movable_and_edits;
  ]
