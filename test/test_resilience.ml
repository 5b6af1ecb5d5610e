(* Resilience-layer tests: cooperative deadlines, the certificate-gated
   solver fallback chain, deterministic fault injection and the
   hardened parser entry points.

   Every test pins its own fault configuration (Faults.configure /
   Faults.disable) and restores the environment-driven default, so the
   suite behaves identically whether or not CI's RAR_FAULTS matrix is
   active. *)

module Deadline = Rar_util.Deadline
module Diag = Rar_util.Diag
module Pool = Rar_util.Pool
module Json = Rar_util.Json
module Faults = Rar_resilience.Faults
module Problem = Rar_flow.Problem
module Netsimplex = Rar_flow.Netsimplex
module Ssp = Rar_flow.Ssp
module Difflp = Rar_flow.Difflp
module Bench_io = Rar_netlist.Bench_io
module Verilog_io = Rar_netlist.Verilog_io
module Liberty_io = Rar_liberty.Liberty_io
module Spec = Rar_circuits.Spec
module Generator = Rar_circuits.Generator
module Suite = Rar_circuits.Suite
module Error = Rar_retime.Error
module Outcome = Rar_retime.Outcome
module Engine = Rar_engine

let with_faults ?seed ?deadline_s profiles f =
  Faults.configure ?seed ?deadline_s profiles;
  Fun.protect ~finally:Faults.use_env f

let without_faults f =
  Faults.disable ();
  Fun.protect ~finally:Faults.use_env f

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* --- Deadline ------------------------------------------------------ *)

let test_deadline_basics () =
  (match Deadline.make ~budget_s:(-1.) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative budget must be rejected");
  let d = Deadline.make ~budget_s:0. in
  Alcotest.(check bool) "zero budget is expired" true (Deadline.expired d);
  (match Deadline.force_check d ~phase:"unit" with
  | () -> Alcotest.fail "force_check on an expired token must raise"
  | exception Deadline.Expired { phase; elapsed } ->
    Alcotest.(check string) "phase" "unit" phase;
    Alcotest.(check bool) "elapsed non-negative" true (elapsed >= 0.));
  let d = Deadline.make ~budget_s:3600. in
  Deadline.force_check d ~phase:"unit";
  Alcotest.(check bool) "fresh token not expired" true (not (Deadline.expired d));
  Alcotest.(check bool) "remaining within budget" true
    (Deadline.remaining_s d <= Deadline.budget_s d);
  Alcotest.(check bool) "elapsed non-negative" true (Deadline.elapsed_s d >= 0.)

let test_deadline_stride () =
  let d = Deadline.make ~budget_s:0. in
  let fired = ref false in
  (try
     for _ = 1 to 2 * Deadline.stride do
       Deadline.check d ~phase:"stride"
     done
   with Deadline.Expired _ -> fired := true);
  Alcotest.(check bool) "strided check fires within two strides" true !fired

(* A long chain transshipment: enough simplex pivots / queue pops that
   the strided in-loop checks are guaranteed to sample the clock. *)
let chain_problem n =
  let p = Problem.create ~n in
  for i = 0 to n - 2 do
    ignore (Problem.add_arc p ~src:i ~dst:(i + 1) ~cost:1)
  done;
  Problem.add_demand p 0 (-1.0);
  Problem.add_demand p (n - 1) 1.0;
  p

let test_netsimplex_deadline () =
  let p = chain_problem 2000 in
  (match Netsimplex.solve p with
  | Ok _ -> ()
  | Error e ->
    Alcotest.fail
      ("chain problem must be solvable: " ^ Netsimplex.error_to_string e));
  let d = Deadline.make ~budget_s:0. in
  match Netsimplex.solve ~deadline:d p with
  | exception Deadline.Expired { phase; _ } ->
    Alcotest.(check string) "phase" "netsimplex" phase
  | Ok _ | Error _ -> Alcotest.fail "netsimplex must hit the deadline"

let test_ssp_deadline () =
  let p = chain_problem 50 in
  (match Ssp.solve p with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("chain problem must be solvable: " ^ e));
  let d = Deadline.make ~budget_s:0. in
  match Ssp.solve ~deadline:d p with
  | exception Deadline.Expired _ -> ()
  | Ok _ | Error _ -> Alcotest.fail "ssp must hit the deadline"

(* --- Difflp fallback chain ----------------------------------------- *)

let small_lp () =
  let t = Difflp.create ~n:4 in
  Difflp.add_constraint t ~u:1 ~v:0 ~bound:2;
  Difflp.add_constraint t ~u:2 ~v:1 ~bound:(-1);
  Difflp.add_constraint t ~u:3 ~v:2 ~bound:3;
  Difflp.add_constraint t ~u:0 ~v:3 ~bound:0;
  Difflp.add_objective t 0 (-1.0);
  Difflp.add_objective t 1 1.0;
  Difflp.add_objective t 2 2.0;
  Difflp.add_objective t 3 (-2.0);
  t

let check_fallback profile =
  let t = small_lp () in
  let clean =
    without_faults (fun () ->
        match Difflp.solve ~engine:Difflp.Ssp t ~reference:0 with
        | Ok r -> r
        | Error e -> Alcotest.fail ("clean ssp solve failed: " ^ e))
  in
  with_faults [ profile ] (fun () ->
      let events = ref [] in
      match
        Difflp.solve
          ~on_fallback:(fun e -> events := e :: !events)
          ~engine:Difflp.Network_simplex t ~reference:0
      with
      | Error e -> Alcotest.fail ("fallback chain must recover: " ^ e)
      | Ok r ->
        Alcotest.(check (array int)) "same optimum as the clean alternate"
          clean r;
        (match !events with
        | [ e ] ->
          Alcotest.(check bool) "primary was netsimplex" true
            (e.Difflp.failed = Difflp.Network_simplex);
          Alcotest.(check bool) "retry was ssp" true
            (e.Difflp.retried = Difflp.Ssp);
          Alcotest.(check bool) "reason non-empty" true (e.Difflp.reason <> "")
        | es ->
          Alcotest.failf "expected exactly one fallback event, got %d"
            (List.length es)))

let test_fallback_on_timeout () = check_fallback Faults.Timeout
let test_fallback_on_badcert () = check_fallback Faults.Badcert

let test_clean_path_has_no_events () =
  without_faults (fun () ->
      let t = small_lp () in
      let events = ref 0 in
      match Difflp.solve ~on_fallback:(fun _ -> incr events) t ~reference:0 with
      | Error e -> Alcotest.fail e
      | Ok _ -> Alcotest.(check int) "no fallback on the clean path" 0 !events)

(* --- Engine-level degradation paths -------------------------------- *)

let prepared_lazy =
  lazy
    (Suite.prepare
       (Generator.generate
          {
            Spec.name = "resil";
            n_flops = 14;
            n_pi = 4;
            n_po = 3;
            n_gates = 140;
            depth = 7;
            nce_target = 4;
            seed = "resil1";
            src_bias_pct = 55;
          }))

let prepared () = without_faults (fun () -> Lazy.force prepared_lazy)

let rvl () = Option.get (Engine.of_name "rvl")

let test_engine_deadline () =
  let p = prepared () in
  without_faults (fun () ->
      List.iter
        (fun solver ->
          let cfg = Engine.config ~solver ~c:1.0 (rvl ()) in
          let deadline = Deadline.make ~budget_s:0. in
          match Engine.run_prepared ~deadline cfg p with
          | Error (Error.Timeout { phase; elapsed }) ->
            Alcotest.(check bool) "phase named" true (phase <> "");
            Alcotest.(check bool) "elapsed non-negative" true (elapsed >= 0.)
          | Error e ->
            Alcotest.fail ("expected Timeout, got " ^ Error.to_string e)
          | Ok _ -> Alcotest.fail "expected Timeout")
        [ Difflp.Network_simplex; Difflp.Ssp ])

let test_fault_profile_arms_deadline () =
  let p = prepared () in
  with_faults ~deadline_s:0. [] (fun () ->
      match Engine.run_prepared (Engine.config ~c:1.0 (rvl ())) p with
      | Error (Error.Timeout _) -> ()
      | Error e -> Alcotest.fail ("expected Timeout, got " ^ Error.to_string e)
      | Ok _ -> Alcotest.fail "deadline=<ms> profile must arm a deadline")

let test_engine_fallback_identical_outcome () =
  let p = prepared () in
  let clean =
    without_faults (fun () ->
        match
          Engine.run_prepared
            (Engine.config ~solver:Difflp.Ssp ~c:1.0 Engine.Grar)
            p
        with
        | Ok r -> r
        | Error e -> Alcotest.fail (Error.to_string e))
  in
  Alcotest.(check int) "clean run records no events" 0
    (List.length clean.Engine.events);
  with_faults [ Faults.Timeout ] (fun () ->
      match
        Engine.run_prepared
          (Engine.config ~solver:Difflp.Network_simplex ~c:1.0 Engine.Grar)
          p
      with
      | Error e -> Alcotest.fail (Error.to_string e)
      | Ok r ->
        Alcotest.(check bool) "fallback events recorded" true
          (r.Engine.events <> []);
        List.iter
          (fun (e : Difflp.fallback_event) ->
            Alcotest.(check bool) "primary was netsimplex" true
              (e.Difflp.failed = Difflp.Network_simplex);
            Alcotest.(check bool) "retry was ssp" true
              (e.Difflp.retried = Difflp.Ssp))
          r.Engine.events;
        let co = clean.Engine.outcome and fo = r.Engine.outcome in
        Alcotest.(check int) "same slave count" co.Outcome.n_slaves
          fo.Outcome.n_slaves;
        Alcotest.(check int) "same ED count" (Outcome.ed_count co)
          (Outcome.ed_count fo);
        Alcotest.(check bool) "identical placements" true
          (co.Outcome.placements = fo.Outcome.placements);
        Alcotest.(check (float 1e-9)) "same sequential area" co.Outcome.seq_area
          fo.Outcome.seq_area)

let test_poolkill_is_typed () =
  let p = prepared () in
  with_faults [ Faults.Poolkill ] (fun () ->
      match Engine.run_prepared (Engine.config ~c:1.0 Engine.Grar) p with
      | Error (Error.Worker_crashed _) -> ()
      | Error e ->
        Alcotest.fail ("expected Worker_crashed, got " ^ Error.to_string e)
      | Ok _ -> Alcotest.fail "expected Worker_crashed")

let test_solver_events_json () =
  let p = prepared () in
  let cfg = Engine.config ~c:1.0 Engine.Grar in
  let json_for r = Json.to_string (Engine.result_json ~circuit:"resil" cfg r) in
  without_faults (fun () ->
      match Engine.run_prepared cfg p with
      | Error e -> Alcotest.fail (Error.to_string e)
      | Ok r ->
        Alcotest.(check bool) "no solver_events field on the clean path" false
          (contains (json_for r) "solver_events"));
  with_faults [ Faults.Timeout ] (fun () ->
      match Engine.run_prepared cfg p with
      | Error e -> Alcotest.fail (Error.to_string e)
      | Ok r ->
        let j = json_for r in
        Alcotest.(check bool) "solver_events present under injection" true
          (contains j "solver_events");
        Alcotest.(check bool) "event names the failed engine" true
          (contains j (Difflp.engine_name Difflp.Network_simplex)))

(* --- Closure, the default engine, in the fault matrix -------------- *)

(* A binary-window LP: [Difflp.solve] without an engine picks closure. *)
let window_lp () =
  let t = Difflp.create ~n:4 in
  List.iter
    (fun v ->
      Difflp.add_constraint t ~u:v ~v:0 ~bound:0;
      Difflp.add_constraint t ~u:0 ~v ~bound:1)
    [ 1; 2; 3 ];
  Difflp.add_constraint t ~u:2 ~v:1 ~bound:0;
  Difflp.add_objective t 1 1.0;
  Difflp.add_objective t 2 (-2.0);
  Difflp.add_objective t 3 1.0;
  t

let check_closure_fallback profile =
  let t = window_lp () in
  Alcotest.(check bool) "default engine is closure" true
    (Difflp.default_engine t ~reference:0 = Difflp.Closure);
  let clean =
    without_faults (fun () ->
        match Difflp.solve ~engine:Difflp.Network_simplex t ~reference:0 with
        | Ok r -> Difflp.objective_value t r
        | Error e -> Alcotest.fail ("clean simplex solve failed: " ^ e))
  in
  with_faults [ profile ] (fun () ->
      let events = ref [] in
      match
        Difflp.solve ~on_fallback:(fun e -> events := e :: !events) t
          ~reference:0
      with
      | Error e -> Alcotest.fail ("fallback chain must recover: " ^ e)
      | Ok r -> (
        Alcotest.(check (float 1e-9)) "same optimum as the reference" clean
          (Difflp.objective_value t r);
        match !events with
        | [ e ] ->
          Alcotest.(check bool) "primary was closure" true
            (e.Difflp.failed = Difflp.Closure);
          Alcotest.(check bool) "retry was netsimplex" true
            (e.Difflp.retried = Difflp.Network_simplex)
        | es ->
          Alcotest.failf "expected exactly one fallback event, got %d"
            (List.length es)))

let test_closure_fallback_on_timeout () = check_closure_fallback Faults.Timeout
let test_closure_fallback_on_badcert () = check_closure_fallback Faults.Badcert

let test_closure_badcert_engine_events () =
  let p = prepared () in
  let cfg = Engine.config ~c:1.0 Engine.Grar in
  let clean =
    without_faults (fun () ->
        match Engine.run_prepared cfg p with
        | Ok r -> r
        | Error e -> Alcotest.fail (Error.to_string e))
  in
  with_faults [ Faults.Badcert ] (fun () ->
      match Engine.run_prepared cfg p with
      | Error e -> Alcotest.fail (Error.to_string e)
      | Ok r ->
        Alcotest.(check bool) "solver_events recorded" true
          (r.Engine.events <> []);
        List.iter
          (fun (e : Difflp.fallback_event) ->
            Alcotest.(check bool) "closure failed" true
              (e.Difflp.failed = Difflp.Closure);
            Alcotest.(check bool) "netsimplex retried" true
              (e.Difflp.retried = Difflp.Network_simplex))
          r.Engine.events;
        let j = Json.to_string (Engine.result_json ~circuit:"resil" cfg r) in
        Alcotest.(check bool) "solver_events in rar-run/1" true
          (contains j "solver_events");
        Alcotest.(check int) "same ED count as the clean run"
          (Outcome.ed_count clean.Engine.outcome)
          (Outcome.ed_count r.Engine.outcome))

let test_closure_deadline () =
  let p = prepared () in
  without_faults (fun () ->
      let deadline = Deadline.make ~budget_s:0. in
      match
        Engine.run_prepared ~deadline
          (Engine.config ~solver:Difflp.Closure ~c:1.0 Engine.Grar)
          p
      with
      | Error (Error.Timeout _) -> ()
      | Error e -> Alcotest.fail ("expected Timeout, got " ^ Error.to_string e)
      | Ok _ -> Alcotest.fail "expected Timeout")

(* The environment configuration is read once at load time; concurrent
   readers must never race on its initialisation. *)
let test_faults_active_concurrent () =
  Faults.use_env ();
  let expected = Faults.active () in
  let worker () =
    let same = ref true in
    for _ = 1 to 1_000 do
      if Faults.active () <> expected then same := false
    done;
    !same
  in
  let ds = List.init 4 (fun _ -> Domain.spawn worker) in
  Alcotest.(check (list bool)) "every domain saw the same configuration"
    [ true; true; true; true ] (List.map Domain.join ds)

(* --- RAR_FAULTS grammar -------------------------------------------- *)

let test_faults_grammar () =
  (match Faults.of_string "11:timeout" with
  | Ok c ->
    Alcotest.(check int) "seed" 11 c.Faults.seed;
    Alcotest.(check bool) "single profile" true
      (c.Faults.profiles = [ Faults.Timeout ]);
    Alcotest.(check string) "round-trips" "11:timeout" (Faults.to_string c)
  | Error e -> Alcotest.fail e);
  (match Faults.of_string "5:badcert,deadline=250" with
  | Ok c ->
    Alcotest.(check bool) "deadline parsed to seconds" true
      (c.Faults.deadline_s = Some 0.25);
    Alcotest.(check bool) "badcert listed" true
      (List.mem Faults.Badcert c.Faults.profiles)
  | Error e -> Alcotest.fail e);
  List.iter
    (fun s ->
      match Faults.of_string s with
      | Ok _ -> Alcotest.fail (Printf.sprintf "%S must be rejected" s)
      | Error _ -> ())
    [ ""; "timeout"; "x:timeout"; "3:"; "3:nosuch"; "3:deadline=abc" ]

(* --- Hardened parsers ----------------------------------------------- *)

let bench_text =
  "INPUT(a)\nINPUT(b)\nG1 = NAND(a, b)\nG2 = DFF(G1)\nOUTPUT(G2)\n"

let lib_text =
  lazy
    (without_faults (fun () ->
         Liberty_io.print (Rar_liberty.Liberty.default ())))

let verilog_text =
  lazy
    (without_faults (fun () ->
         match Bench_io.parse_diag bench_text with
         | Ok net -> Verilog_io.print net
         | Error d -> Alcotest.fail (Diag.to_string d)))

let mutate text i c =
  if text = "" then text
  else
    let i = i mod String.length text in
    String.mapi (fun j x -> if j = i then c else x) text

let truncate_at text cut =
  String.sub text 0 (cut mod (String.length text + 1))

(* Never-raises property shared by the three parsers: on a mutated or
   truncated document the parser must return, not throw. *)
let never_raises name base parse =
  QCheck.Test.make
    ~name:(name ^ " never raises on mutated/truncated input")
    ~count:200
    QCheck.(triple small_nat printable_char small_nat)
    (fun (i, c, cut) ->
      without_faults (fun () ->
          let s = truncate_at (mutate (Lazy.force base) i c) cut in
          match parse s with Ok _ | Error _ -> true))

let prop_bench_fuzz =
  never_raises "Bench_io" (Lazy.from_val bench_text)
    (Bench_io.parse_diag ?file:None)

let prop_liberty_fuzz =
  never_raises "Liberty_io" lib_text (Liberty_io.parse_diag ?file:None)

let prop_verilog_fuzz =
  never_raises "Verilog_io" verilog_text (Verilog_io.parse_diag ?file:None)

let prop_garbage_fuzz =
  QCheck.Test.make ~name:"parsers never raise on arbitrary text" ~count:200
    QCheck.printable_string (fun s ->
      without_faults (fun () ->
          (match Bench_io.parse_diag s with Ok _ | Error _ -> ());
          (match Liberty_io.parse_diag s with Ok _ | Error _ -> ());
          match Verilog_io.parse_diag s with Ok _ | Error _ -> true))

let test_truncate_profile_is_deterministic () =
  with_faults [ Faults.Truncate ] (fun () ->
      let a = Bench_io.parse_diag bench_text in
      let b = Bench_io.parse_diag bench_text in
      Alcotest.(check bool) "truncated parse is reproducible" true (a = b))

let test_diag_locations () =
  without_faults (fun () ->
      (match Bench_io.parse_diag ~file:"x.bench" "INPUT(a)\n  G1 = BOGUS(a)\n" with
      | Ok _ -> Alcotest.fail "bogus operator must fail"
      | Error d ->
        Alcotest.(check string) "gcc-style rendering"
          "x.bench:2:3: unknown operator \"BOGUS\"" (Diag.to_string d));
      (match Bench_io.parse_diag "INPUT(a)\n  G1 = BOGUS(a)\n" with
      | Ok _ -> Alcotest.fail "bogus operator must fail"
      | Error d ->
        Alcotest.(check int) "line" 2 d.Diag.line;
        Alcotest.(check int) "column" 3 d.Diag.col;
        Alcotest.(check string) "message" "unknown operator \"BOGUS\""
          d.Diag.msg);
      match Liberty_io.parse_diag "library (l) {\n  /* open" with
      | Ok _ -> Alcotest.fail "unterminated comment must fail"
      | Error d ->
        Alcotest.(check int) "line tracked" 2 d.Diag.line;
        Alcotest.(check string) "message" "unterminated comment" d.Diag.msg)

let test_parse_file_diag_missing () =
  without_faults (fun () ->
      match Bench_io.parse_file_diag "/nonexistent/x.bench" with
      | Ok _ -> Alcotest.fail "missing file must fail"
      | Error d -> Alcotest.(check bool) "message" true (d.Diag.msg <> ""))

(* --- Pool under injected task kills --------------------------------- *)

let test_pool_survives_killed_batch () =
  (* A raising task must neither kill its worker domain nor wedge the
     batch counter: the next batch on the same pool must run. *)
  Pool.set_jobs 2;
  Fun.protect
    ~finally:(fun () -> Pool.set_jobs 1)
    (fun () ->
      with_faults [ Faults.Poolkill ] (fun () ->
          match Pool.map (Array.init 64 Fun.id) (fun x -> x + 1) with
          | _ -> Alcotest.fail "expected the injected kill to propagate"
          | exception Faults.Injected _ -> ());
      without_faults (fun () ->
          let r = Pool.map (Array.init 64 Fun.id) (fun x -> x + 1) in
          Alcotest.(check int) "pool alive after a killed batch" 64 r.(63)))

let suite =
  [
    Alcotest.test_case "deadline basics" `Quick test_deadline_basics;
    Alcotest.test_case "deadline strided check" `Quick test_deadline_stride;
    Alcotest.test_case "netsimplex honours the deadline" `Quick
      test_netsimplex_deadline;
    Alcotest.test_case "ssp honours the deadline" `Quick test_ssp_deadline;
    Alcotest.test_case "fallback on injected timeout" `Quick
      test_fallback_on_timeout;
    Alcotest.test_case "fallback on flipped certificate" `Quick
      test_fallback_on_badcert;
    Alcotest.test_case "clean path reports no fallback" `Quick
      test_clean_path_has_no_events;
    Alcotest.test_case "engine surfaces Timeout for both solvers" `Quick
      test_engine_deadline;
    Alcotest.test_case "deadline fault profile arms a deadline" `Quick
      test_fault_profile_arms_deadline;
    Alcotest.test_case "faulted engine run falls back, same outcome" `Quick
      test_engine_fallback_identical_outcome;
    Alcotest.test_case "killed pool task is a typed error" `Quick
      test_poolkill_is_typed;
    Alcotest.test_case "solver_events only when a fallback fired" `Quick
      test_solver_events_json;
    Alcotest.test_case "RAR_FAULTS grammar" `Quick test_faults_grammar;
    Alcotest.test_case "closure falls back on injected timeout" `Quick
      test_closure_fallback_on_timeout;
    Alcotest.test_case "closure falls back on flipped certificate" `Quick
      test_closure_fallback_on_badcert;
    Alcotest.test_case "badcert on closure records solver_events" `Quick
      test_closure_badcert_engine_events;
    Alcotest.test_case "closure honours the deadline" `Quick
      test_closure_deadline;
    Alcotest.test_case "Faults.active is safe across domains" `Quick
      test_faults_active_concurrent;
    QCheck_alcotest.to_alcotest prop_bench_fuzz;
    QCheck_alcotest.to_alcotest prop_liberty_fuzz;
    QCheck_alcotest.to_alcotest prop_verilog_fuzz;
    QCheck_alcotest.to_alcotest prop_garbage_fuzz;
    Alcotest.test_case "truncate profile is deterministic" `Quick
      test_truncate_profile_is_deterministic;
    Alcotest.test_case "diagnostics carry line and column" `Quick
      test_diag_locations;
    Alcotest.test_case "unreadable file becomes a diagnostic" `Quick
      test_parse_file_diag_missing;
    Alcotest.test_case "pool survives a killed batch" `Quick
      test_pool_survives_killed_batch;
  ]
