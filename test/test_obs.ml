(* Observability-layer tests: spans stay balanced on every error path
   (cooperative timeouts, injected faults), counter totals are
   identical across pool sizes, and — the contract that lets the
   instrumentation live in the kernels permanently — a tracing-disabled
   run renders byte-identical rar-run/1 output for every registered
   engine. *)

module Trace = Rar_obs.Trace
module Metrics = Rar_obs.Metrics
module Faults = Rar_resilience.Faults
module Pool = Rar_util.Pool
module Json = Rar_util.Json
module Deadline = Rar_util.Deadline
module Spec = Rar_circuits.Spec
module Generator = Rar_circuits.Generator
module Suite = Rar_circuits.Suite
module Error = Rar_retime.Error
module Classic = Rar_retime.Classic
module Stage = Rar_retime.Stage
module Netlist = Rar_netlist.Netlist
module Transform = Rar_netlist.Transform
module Engine = Rar_engine

let small_spec seed =
  {
    Spec.name = "obs";
    n_flops = 12 + (seed mod 17);
    n_pi = 4 + (seed mod 5);
    n_po = 3 + (seed mod 4);
    n_gates = 120 + (7 * (seed mod 23));
    depth = 7 + (seed mod 6);
    nce_target = 3 + (seed mod 6);
    seed = Printf.sprintf "obs%d" seed;
    src_bias_pct = 55;
  }

let cached_prepared =
  let tbl = Hashtbl.create 8 in
  fun seed ->
    match Hashtbl.find_opt tbl seed with
    | Some p -> p
    | None ->
      let p = Suite.prepare (Generator.generate (small_spec seed)) in
      Hashtbl.replace tbl seed p;
      p

(* Arm tracing + metrics for [f], then disarm and drop all recorded
   state, whatever [f] does — tests must not leak armed state into the
   rest of the suite. *)
let with_obs f =
  Trace.clear ();
  Metrics.reset ();
  Trace.arm ();
  Metrics.arm ();
  Fun.protect
    ~finally:(fun () ->
      Trace.disarm ();
      Metrics.disarm ();
      Trace.clear ();
      Metrics.reset ())
    f

(* The suite may run under a RAR_FAULTS profile (the CI fault matrix);
   pin a clean fault configuration for tests about tracing itself. *)
let with_clean_faults f =
  Faults.disable ();
  Fun.protect ~finally:Faults.use_env f

(* Naive substring scan; fine for test-sized strings. *)
let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let check_balanced_ok what =
  match Trace.check_balanced () with
  | Ok () -> ()
  | Error msg -> Alcotest.fail (what ^ ": " ^ msg)

(* --- span balance on error paths ---------------------------------- *)

let test_balance_under_timeout () =
  with_clean_faults @@ fun () ->
  with_obs @@ fun () ->
  let p = cached_prepared 1 in
  let cfg = Engine.config ~c:1.0 Engine.Grar in
  let deadline = Deadline.make ~budget_s:0. in
  (match Engine.run_prepared ~deadline cfg p with
  | Error (Error.Timeout _) -> ()
  | Error e -> Alcotest.fail ("expected Timeout, got " ^ Error.to_string e)
  | Ok _ -> Alcotest.fail "expected a zero-budget run to time out");
  Alcotest.(check bool) "events recorded" true (Trace.event_count () > 0);
  check_balanced_ok "timeout path"

let test_balance_under_injected_faults () =
  with_obs @@ fun () ->
  Faults.configure [ Faults.Timeout; Faults.Badcert ];
  Fun.protect ~finally:Faults.use_env (fun () ->
      let p = cached_prepared 2 in
      let cfg = Engine.config ~c:1.0 Engine.Grar in
      (match Engine.run_prepared cfg p with
      | Ok _ -> ()
      | Error e ->
        Alcotest.fail ("faulted run should fall back: " ^ Error.to_string e));
      check_balanced_ok "solver-fault path")

let test_balance_under_poolkill () =
  with_obs @@ fun () ->
  Pool.set_jobs 2;
  Fun.protect
    ~finally:(fun () ->
      Pool.set_jobs 1;
      Faults.use_env ())
    (fun () ->
      Faults.configure [ Faults.Poolkill ];
      let p = cached_prepared 3 in
      let cfg = Engine.config ~c:1.0 Engine.Grar in
      (* Whether the kill fires depends on which code paths hit the
         pool; balance must hold either way. *)
      (match Engine.run_prepared cfg p with Ok _ | Error _ -> ());
      check_balanced_ok "poolkill path")

(* --- counter determinism across pool sizes ------------------------- *)

let pipe_prepared =
  let p = lazy (Suite.prepare (Generator.pipeline ~stages:16 ())) in
  fun () -> Lazy.force p

let counters_at_jobs jobs =
  Pool.set_jobs jobs;
  Metrics.reset ();
  let p = cached_prepared 4 in
  let cfg = Engine.config ~c:1.0 Engine.Grar in
  (match Engine.run_prepared cfg p with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Error.to_string e));
  (* Classic min-period exercises the SPFA and W/D-memo counters the
     G-RAR path does not touch. *)
  let g =
    Classic.of_netlist ~host_registers:1 ~lib:p.Suite.lib p.Suite.flop_netlist
  in
  ignore (Classic.min_period g);
  (* A stage with more sinks than the pool's sequential threshold, so
     jobs 2/4 really classify in chunks, one cone scratch each. *)
  let pipe = pipe_prepared () in
  (match
     Stage.make ~lib:pipe.Suite.lib ~clocking:pipe.Suite.clocking pipe.Suite.cc
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Error.to_string e));
  fst (Metrics.snapshot ())

let test_counters_jobs_invariant () =
  with_clean_faults @@ fun () ->
  with_obs @@ fun () ->
  Fun.protect
    ~finally:(fun () -> Pool.set_jobs 1)
    (fun () ->
      (* Warm the stage/STA memo caches first: counter totals are
         deterministic per run, but a cold first run does more STA work
         than the warm runs after it, independent of the job count. *)
      ignore (counters_at_jobs 1);
      let c1 = counters_at_jobs 1 in
      let c2 = counters_at_jobs 2 in
      let c4 = counters_at_jobs 4 in
      let show cs =
        String.concat ", "
          (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) cs)
      in
      Alcotest.(check string) "jobs=1 vs jobs=2" (show c1) (show c2);
      Alcotest.(check string) "jobs=1 vs jobs=4" (show c1) (show c4);
      let v k = List.assoc k c1 in
      Alcotest.(check bool) "pivots counted" true
        (v "netsimplex_pivots" > 0 || v "maxflow_augmentations" > 0);
      Alcotest.(check bool) "spfa relaxations counted" true
        (v "spfa_relaxations" > 0);
      Alcotest.(check bool) "sta pin relaxations counted" true
        (v "sta_pin_relaxations" > 0);
      Alcotest.(check bool) "wd memo counted" true
        (v "wd_memo_misses" > 0 && v "wd_memo_hits" > 0);
      let pipe_sinks =
        Array.length
          (Netlist.outputs (pipe_prepared ()).Suite.cc.Transform.comb)
      in
      Alcotest.(check bool) "stage cone nodes counted" true
        (v "stage_cone_nodes" > pipe_sinks);
      (* One stage alone: the prune bound decides some of its sinks,
         never more than it has. *)
      Metrics.reset ();
      let pipe = pipe_prepared () in
      ignore
        (Stage.make ~lib:pipe.Suite.lib ~clocking:pipe.Suite.clocking
           pipe.Suite.cc);
      let pruned = Metrics.value (Metrics.counter "stage_sinks_pruned") in
      Alcotest.(check bool) "pruned sinks at most the sink count" true
        (pruned > 0 && pruned <= pipe_sinks);
      (* the object [rar run --metrics] embeds *)
      Alcotest.(check bool) "stage_cone_nodes in the metrics JSON" true
        (match Json.member "counters" (Metrics.snapshot_json ()) with
        | Some counters -> Json.member_int "stage_cone_nodes" counters <> None
        | None -> false))

(* --- disabled tracing leaves output byte-identical ------------------ *)

let render cfg r =
  (* wall_s is the one legitimately nondeterministic field *)
  Json.to_string (Engine.result_json ~circuit:"obs" cfg { r with Engine.wall_s = 0. })

let test_disabled_byte_identical () =
  with_clean_faults @@ fun () ->
  let p = cached_prepared 5 in
  List.iter
    (fun spec ->
      let cfg = Engine.config ~c:1.0 ~movable_moves:2 spec in
      let run () =
        match Engine.run_prepared cfg p with
        | Ok r -> render cfg r
        | Error e ->
          Alcotest.fail (Engine.name spec ^ ": " ^ Error.to_string e)
      in
      let plain = run () in
      let armed = with_obs run in
      Alcotest.(check string)
        (Engine.name spec ^ " output identical under tracing")
        plain armed;
      let again = run () in
      Alcotest.(check string)
        (Engine.name spec ^ " output identical after tracing")
        plain again;
      Alcotest.(check bool)
        (Engine.name spec ^ " has no metrics field by default")
        false
        (contains_sub plain "\"metrics\""))
    Engine.all

(* --- export + schema ------------------------------------------------ *)

let test_trace_export () =
  with_obs @@ fun () ->
  Trace.span "engine/test" (fun () ->
      Trace.span "solver/inner" (fun () -> ()));
  let path = Filename.temp_file "rar_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Trace.export_file path;
      let ic = open_in path in
      let len = in_channel_length ic in
      let text = really_input_string ic len in
      close_in ic;
      match Json.of_string text with
      | Error e -> Alcotest.fail ("trace does not parse: " ^ e)
      | Ok j ->
        (match Json.member "schema" j with
        | Some (Json.String s) ->
          Alcotest.(check string) "schema" "rar-trace/1" s
        | _ -> Alcotest.fail "missing schema");
        (match Json.member "traceEvents" j with
        | Some (Json.List evs) ->
          Alcotest.(check int) "two B/E pairs" 4 (List.length evs);
          let ts =
            List.map
              (fun e ->
                match Json.member "ts" e with
                | Some (Json.Float t) -> t
                | Some (Json.Int t) -> float_of_int t
                | _ -> Alcotest.fail "event lacks ts")
              evs
          in
          Alcotest.(check bool) "timestamps nondecreasing" true
            (List.sort compare ts = ts)
        | _ -> Alcotest.fail "missing traceEvents"))

let test_check_balanced_detects () =
  with_obs @@ fun () ->
  let _unclosed = Trace.span_fn "dangling" in
  (match Trace.check_balanced () with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "dangling Begin must fail the balance check");
  Trace.clear ();
  check_balanced_ok "after clear"

(* --- pool self-sizing observability -------------------------------- *)

(* The decision hook wired at Metrics load time must expose every
   dispatch's sizing through the gauges, on any host. A single-element
   batch is refused before the host clamp is even consulted, so that
   branch is host-agnostic; the oversubscription clamp is pinned to
   [host_cores ()], whatever it is. *)
let test_pool_decision_gauges () =
  with_obs @@ fun () ->
  Fun.protect ~finally:(fun () -> Pool.set_jobs 1) @@ fun () ->
  let requested = Metrics.gauge "pool_jobs_requested" in
  let effective = Metrics.gauge "pool_jobs_effective" in
  let single = Metrics.gauge "pool_seq_fallback_single_chunk" in
  let host_clamp = Metrics.gauge "pool_seq_fallback_host_clamp" in
  Pool.set_jobs 2;
  let r = Pool.map [| 41 |] succ in
  Alcotest.(check (array int)) "map result" [| 42 |] r;
  Alcotest.(check int) "single-element batch counted" 1 (Metrics.value single);
  Alcotest.(check int) "single-element batch ran sequentially" 1
    (Metrics.value effective);
  let wild = Pool.host_cores () + 7 in
  Pool.set_jobs wild;
  let xs = Array.init 1024 Fun.id in
  let r = Pool.map xs (fun x -> x * 2) in
  Alcotest.(check (array int)) "clamped map result"
    (Array.map (fun x -> x * 2) xs) r;
  Alcotest.(check int) "requested gauge = ceiling" wild
    (Metrics.value requested);
  Alcotest.(check int) "effective gauge clamped to host"
    (Pool.host_cores ()) (Metrics.value effective);
  if Pool.host_cores () = 1 then
    Alcotest.(check bool) "1-core host counts a host_clamp fallback" true
      (Metrics.value host_clamp > 0)

(* rar-run/1 output (wall-clock zeroed) must be byte-identical however
   the pool is sized — the scheduling of parallel batches must never
   leak into results. *)
let test_run_json_identical_across_jobs () =
  with_clean_faults @@ fun () ->
  Fun.protect ~finally:(fun () -> Pool.set_jobs 1) @@ fun () ->
  let p = cached_prepared 5 in
  let cfg = Engine.config ~c:1.0 ~movable_moves:2 Engine.Grar in
  let at_jobs j =
    Pool.set_jobs j;
    match Engine.run_prepared cfg p with
    | Ok r -> render cfg r
    | Error e -> Alcotest.failf "run failed at jobs=%d: %s" j (Error.to_string e)
  in
  let ref_out = at_jobs 1 in
  List.iter
    (fun j ->
      Alcotest.(check string)
        (Printf.sprintf "jobs=%d byte-identical to jobs=1" j)
        ref_out (at_jobs j))
    [ 2; 4; Pool.host_cores () + 3 ]

(* --- metrics primitives --------------------------------------------- *)

let test_metrics_guard_and_max () =
  let c = Metrics.counter "obs_test_counter" in
  let g = Metrics.gauge "obs_test_gauge" in
  Metrics.disarm ();
  Metrics.reset ();
  Metrics.add c 5;
  Metrics.set_max g 7;
  Alcotest.(check int) "disarmed add is a no-op" 0 (Metrics.value c);
  Alcotest.(check int) "disarmed set_max is a no-op" 0 (Metrics.value g);
  with_obs (fun () ->
      Metrics.add c 5;
      Metrics.incr c;
      Metrics.set_max g 7;
      Metrics.set_max g 3;
      Alcotest.(check int) "armed adds accumulate" 6 (Metrics.value c);
      Alcotest.(check int) "set_max keeps the high-water mark" 7
        (Metrics.value g);
      let counters, gauges = Metrics.snapshot () in
      Alcotest.(check bool) "counter snapshotted" true
        (List.assoc_opt "obs_test_counter" counters = Some 6);
      Alcotest.(check bool) "gauge snapshotted" true
        (List.assoc_opt "obs_test_gauge" gauges = Some 7));
  Alcotest.(check int) "reset zeroes" 0 (Metrics.value c)

let suite =
  [
    Alcotest.test_case "spans balance under Error.Timeout" `Quick
      test_balance_under_timeout;
    Alcotest.test_case "spans balance under injected solver faults" `Quick
      test_balance_under_injected_faults;
    Alcotest.test_case "spans balance under an injected pool kill" `Quick
      test_balance_under_poolkill;
    Alcotest.test_case "counters identical across RAR_JOBS=1/2/4" `Quick
      test_counters_jobs_invariant;
    Alcotest.test_case "disabled tracing is byte-identical, every engine"
      `Quick test_disabled_byte_identical;
    Alcotest.test_case "exported trace is valid rar-trace/1" `Quick
      test_trace_export;
    Alcotest.test_case "check_balanced flags a dangling span" `Quick
      test_check_balanced_detects;
    Alcotest.test_case "metrics guard, set_max and snapshot" `Quick
      test_metrics_guard_and_max;
    Alcotest.test_case "pool sizing decisions exposed via gauges" `Quick
      test_pool_decision_gauges;
    Alcotest.test_case "rar-run/1 byte-identical across pool sizes" `Quick
      test_run_json_identical_across_jobs;
  ]
