(* Timing-simulation tests: unit checks anchored on the Fig. 4 circuit,
   whose arrival times are known exactly; the compiled simulator held
   to the reference one (sim_ref.ml) on generated designs; and a Table
   VIII golden. *)

module Fig4 = Rar_circuits.Fig4
module Netlist = Rar_netlist.Netlist
module Transform = Rar_netlist.Transform
module Stage = Rar_retime.Stage
module Outcome = Rar_retime.Outcome
module Sim = Rar_sim.Sim
module Clocking = Rar_sta.Clocking
module Spec = Rar_circuits.Spec
module Generator = Rar_circuits.Generator
module Suite = Rar_circuits.Suite
module Engine = Rar_engine
module Report = Rar_report.Report
module Faults = Rar_resilience.Faults
module Rng = Rar_util.Rng
module Metrics = Rar_obs.Metrics

let m_sim_cycles = Metrics.counter "sim_cycles"

let stage =
  lazy
    (match
       Stage.make ~lib:(Fig4.library ()) ~clocking:Fig4.clocking
         (Fig4.circuit ())
     with
    | Ok s -> s
    | Error e -> failwith (Rar_retime.Error.to_string e))

let design_of (st : Stage.t) (o : Outcome.t) =
  {
    Sim.staged = Transform.apply_retiming (Stage.cc st) o.Outcome.placements;
    lib = Fig4.library ();
    clocking = Fig4.clocking;
    ed_sinks = o.Outcome.ed_sinks;
  }

let design spec =
  lazy
    (match Engine.run (Engine.config ~c:2.0 spec) (Lazy.force stage) with
    | Ok r -> (r, design_of r.Engine.stage r.Engine.outcome)
    | Error e -> failwith (Rar_retime.Error.to_string e))

let grar_design = design Engine.Grar
let base_design = design Engine.Base

let all_bits v n = Array.make n v

let test_grar_no_errors_ever () =
  (* G-RAR at c = 2 places O9's arrival at 9 < period 10: no vector can
     produce an error or a silent failure. *)
  let _, d = Lazy.force grar_design in
  let n = Array.length (Netlist.inputs d.Sim.staged) in
  let r =
    Sim.run_cycle (Sim.compile d) ~prev:(all_bits false n) ~next:(all_bits true n)
  in
  Alcotest.(check (list int)) "no errors" [] r.Sim.errors;
  Alcotest.(check (list int)) "no silent" [] r.Sim.silent;
  Alcotest.(check (list int)) "no late" [] r.Sim.late;
  let rate = Sim.error_rate ~cycles:200 ~seed:"t" d in
  Alcotest.(check int) "zero error cycles" 0 rate.Sim.error_cycles;
  Alcotest.(check int) "zero silent" 0 rate.Sim.silent_cycles

let test_base_flags_critical_toggle () =
  (* Base retiming leaves O9 error-detecting at arrival 12 > 10: a
     full-toggle vector pair exercises the long path and must flag. *)
  let _, d = Lazy.force base_design in
  let n = Array.length (Netlist.inputs d.Sim.staged) in
  let r = Sim.run_cycle (Sim.compile d) ~prev:(all_bits false n) ~next:(all_bits true n) in
  Alcotest.(check bool) "error flagged" true (r.Sim.errors <> []);
  Alcotest.(check (list int)) "no silent failures" [] r.Sim.silent;
  Alcotest.(check (list int)) "no late captures" [] r.Sim.late

let test_quiet_vectors_no_errors () =
  let _, d = Lazy.force base_design in
  let n = Array.length (Netlist.inputs d.Sim.staged) in
  let v = all_bits false n in
  let r = Sim.run_cycle (Sim.compile d) ~prev:v ~next:v in
  Alcotest.(check (list int)) "no transition, no error" [] r.Sim.errors;
  Alcotest.(check int) "nothing captured" 0 (List.length r.Sim.capture_times)

let test_capture_time_matches_sta () =
  (* The event simulation's worst observed capture time can never
     exceed the STA bound, and the toggle vector should get close on
     this tiny circuit. *)
  let rb, d = Lazy.force base_design in
  let n = Array.length (Netlist.inputs d.Sim.staged) in
  let r = Sim.run_cycle (Sim.compile d) ~prev:(all_bits false n) ~next:(all_bits true n) in
  let sta_bound =
    Array.fold_left
      (fun acc (_, a) -> Float.max acc a)
      0. rb.Engine.outcome.Outcome.arrivals
  in
  List.iter
    (fun (_, t) ->
      Alcotest.(check bool) "sim <= sta" true (t <= sta_bound +. 1e-9))
    r.Sim.capture_times

let test_rate_deterministic () =
  let _, d = Lazy.force base_design in
  let a = Sim.error_rate ~cycles:100 ~seed:"x" d in
  let b = Sim.error_rate ~cycles:100 ~seed:"x" d in
  Alcotest.(check int) "same stream, same count" a.Sim.error_cycles
    b.Sim.error_cycles

let test_rate_rates () =
  let _, d = Lazy.force base_design in
  let r = Sim.error_rate ~cycles:50 ~seed:"y" d in
  Alcotest.(check bool) "rate in [0,100]" true
    (r.Sim.error_rate >= 0. && r.Sim.error_rate <= 100.);
  Alcotest.(check int) "cycles recorded" 50 r.Sim.cycles

(* --- compiled simulator = reference --------------------------------- *)

(* The suite may run under a RAR_FAULTS profile; a solver fallback may
   return a different optimum, so pin a clean engine where a test needs
   one specific design. *)
let with_clean_faults f =
  Faults.disable ();
  Fun.protect ~finally:Faults.use_env f

let small_spec seed =
  {
    Spec.name = "simprop";
    n_flops = 10 + (seed mod 13);
    n_pi = 3 + (seed mod 5);
    n_po = 2 + (seed mod 4);
    n_gates = 90 + (7 * (seed mod 29));
    depth = 6 + (seed mod 6);
    nce_target = 2 + (seed mod 5);
    seed = Printf.sprintf "simprop%d" seed;
    src_bias_pct = 55;
  }

let bits = Int64.bits_of_float

let same_cycle (a : Sim.cycle_result) (b : Sim.cycle_result) =
  a.Sim.errors = b.Sim.errors
  && a.Sim.silent = b.Sim.silent
  && a.Sim.late = b.Sim.late
  && a.Sim.late_at_slave = b.Sim.late_at_slave
  && List.equal
       (fun (s, t) (s', t') -> s = s' && Int64.equal (bits t) (bits t'))
       a.Sim.capture_times b.Sim.capture_times

let same_rate (a : Sim.rate) (b : Sim.rate) =
  a.Sim.cycles = b.Sim.cycles
  && a.Sim.error_cycles = b.Sim.error_cycles
  && a.Sim.error_events = b.Sim.error_events
  && a.Sim.silent_cycles = b.Sim.silent_cycles
  && Int64.equal (bits a.Sim.error_rate) (bits b.Sim.error_rate)

(* Run one cycle under an observer; return the result and the observed
   (time bits, node, value) sequence. *)
let observed run =
  let evs = ref [] in
  let r =
    run (fun ~time ~node ~value -> evs := (bits time, node, value) :: !evs)
  in
  (r, List.rev !evs)

(* Every cycle of a seeded vector stream: the compiled simulator
   (observed and unobserved) against the reference, then the folded
   error rate. Returns the number of cycles that differ. *)
let mismatches ~cycles ~seed d =
  let c = Sim.compile d in
  let rng = Rng.of_string seed in
  let n = Array.length (Netlist.inputs d.Sim.staged) in
  let vec () = Array.init n (fun _ -> Rng.bool rng) in
  let prev = ref (vec ()) and bad = ref 0 in
  for _ = 1 to cycles do
    let next = vec () in
    let r, ev =
      observed (fun on_event -> Sim.run_cycle ~on_event c ~prev:!prev ~next)
    in
    let r', ev' =
      observed (fun on_event -> Sim_ref.run_cycle ~on_event d ~prev:!prev ~next)
    in
    let quiet = Sim.run_cycle c ~prev:!prev ~next in
    if not (same_cycle r r' && same_cycle quiet r' && ev = ev') then incr bad;
    prev := next
  done;
  if not
       (same_rate
          (Sim.error_rate ~cycles ~seed d)
          (Sim_ref.error_rate ~cycles ~seed d))
  then incr bad;
  !bad

let prop_compiled_matches_reference =
  QCheck.Test.make ~name:"compiled run_cycle = reference simulator" ~count:8
    QCheck.(int_bound 1000)
    (fun seed ->
      with_clean_faults @@ fun () ->
      let net =
        if seed mod 2 = 0 then Generator.generate (small_spec seed)
        else
          Generator.pipeline ~width:(3 + (seed mod 4)) ~stages:(2 + (seed mod 3))
            ~seed:(Printf.sprintf "simpipe%d" seed) ()
      in
      List.for_all
        (fun (scheme, clock) ->
          let p = Suite.prepare ~clock net in
          match Engine.stage_of p with
          | Error e ->
            QCheck.Test.fail_reportf "%s stage: %s" scheme
              (Rar_retime.Error.to_string e)
          | Ok st ->
            List.for_all
              (fun spec ->
                match Engine.run (Engine.config ~c:1.0 spec) st with
                | Error e ->
                  QCheck.Test.fail_reportf "%s %s: %s" scheme (Engine.name spec)
                    (Rar_retime.Error.to_string e)
                | Ok r -> (
                  let d = Report.sim_design r.Engine.stage r.Engine.outcome in
                  match
                    mismatches ~cycles:30 ~seed:(string_of_int seed) d
                  with
                  | 0 -> true
                  | k ->
                    QCheck.Test.fail_reportf "%s %s: %d cycles differ" scheme
                      (Engine.name spec) k))
              Engine.tabulated)
        [ ("two-phase", Clocking.of_p); ("three-phase", Clocking.of_p3) ])

(* Table VIII at 300 cycles, recorded from the simulator before it was
   compiled: any change to simulation semantics or to the report's
   memoisation shows up here. *)
let table_viii_golden =
  {|| Circuit | low Base | low RVL | low G | medium Base | medium RVL | medium G | high Base | high RVL | high G |
|---------|----------|---------|-------|-------------|------------|----------|-----------|----------|--------|
| s1196   |    16.00 |   18.33 | 17.67 |       16.00 |      18.33 |    17.67 |     16.00 |    18.33 |  17.67 |
| s1423   |    78.00 |   74.00 |  0.00 |       78.00 |      74.00 |     0.00 |     78.00 |    74.00 |   0.00 |
| s5378   |    94.00 |   92.00 |  0.00 |       94.00 |      92.00 |     0.00 |     94.00 |    92.00 |   0.00 |
|---------|----------|---------|-------|-------------|------------|----------|-----------|----------|--------|
| average |    62.67 |   61.44 |  5.89 |       62.67 |      61.44 |     5.89 |     62.67 |    61.44 |   5.89 |
|}

(* Each engine's design is the same at all three overheads on these
   circuits, so the 27 cells hold 9 distinct designs and the per-cell
   path simulates each of them once. *)
let test_table_viii_golden () =
  with_clean_faults @@ fun () ->
  let t =
    Report.create ~names:[ "s1196"; "s1423"; "s5378" ] ~sim_cycles:300 ()
  in
  Metrics.reset ();
  Metrics.arm ();
  let table =
    Fun.protect ~finally:Metrics.disarm (fun () -> Report.table t 8)
  in
  let cycles = Metrics.value m_sim_cycles in
  Metrics.reset ();
  match table with
  | Ok s ->
    Alcotest.(check string) "Table VIII text" table_viii_golden s;
    Alcotest.(check int) "9 designs simulated once each" (9 * 300) cycles
  | Error e -> Alcotest.fail e

let test_latch_cycle_rejected () =
  (* two slaves feeding each other through a gate: no settling order *)
  let module B = Netlist.Builder in
  let b = B.create ~name:"loop" () in
  let a = B.add_input b "a" in
  let g = B.add_gate_deferred b "g" ~fn:Rar_netlist.Cell_kind.And () in
  let l = B.add_seq b "l" ~role:Netlist.Slave ~fanin:g in
  B.connect b g ~fanins:[ a; l ];
  ignore (B.add_output b "o" ~fanin:l);
  let d =
    { Sim.staged = B.freeze b; lib = Fig4.library (); clocking = Fig4.clocking;
      ed_sinks = [] }
  in
  match Sim.compile d with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "latch cycle compiled"

let suite =
  [
    Alcotest.test_case "G-RAR design never errors" `Quick
      test_grar_no_errors_ever;
    Alcotest.test_case "base design flags critical toggle" `Quick
      test_base_flags_critical_toggle;
    Alcotest.test_case "quiet vectors cause nothing" `Quick
      test_quiet_vectors_no_errors;
    Alcotest.test_case "sim capture below STA bound" `Quick
      test_capture_time_matches_sta;
    Alcotest.test_case "error rate deterministic" `Quick
      test_rate_deterministic;
    Alcotest.test_case "error rate sane" `Quick test_rate_rates;
    QCheck_alcotest.to_alcotest prop_compiled_matches_reference;
    Alcotest.test_case "Table VIII golden (s1196, s1423, s5378)" `Slow
      test_table_viii_golden;
    Alcotest.test_case "latch cycle rejected at compile" `Quick
      test_latch_cycle_rejected;
  ]
