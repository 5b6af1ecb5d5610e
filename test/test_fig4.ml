(* Integration test on the paper's Fig. 4/5 worked example. The
   expected numbers follow the paper's §III/§IV walkthrough: the
   resilient-aware optimum (Cut2) uses three slave latches and a
   non-error-detecting O9 for 4 area units at c = 2, beating min-latch
   retiming (Cut1: two slaves + one EDL master, 5 units); at c = 0.5
   the trade flips. *)

module Fig4 = Rar_circuits.Fig4
module Stage = Rar_retime.Stage
module Rgraph = Rar_retime.Rgraph
module Outcome = Rar_retime.Outcome
module Engine = Rar_engine
module Sta = Rar_sta.Sta
module Difflp = Rar_flow.Difflp
module Transform = Rar_netlist.Transform

let feq = Alcotest.(check (float 1e-6))

let stage () =
  match
    Stage.make ~lib:(Fig4.library ()) ~clocking:Fig4.clocking (Fig4.circuit ())
  with
  | Ok s -> s
  | Error e -> Alcotest.fail (Rar_retime.Error.to_string e)

let name_of st v = Rar_netlist.Netlist.node_name (Stage.comb st) v

let test_forward_delays () =
  let st = stage () in
  let cc = Stage.cc st in
  let df n = Sta.df (Stage.sta st) (Fig4.node cc n) in
  feq "Df(G3)" 2. (df "G3");
  feq "Df(G6)" 7. (df "G6");
  feq "Df(G7)" 8. (df "G7");
  feq "Df(G8)" 9. (df "G8");
  feq "Df(O9)" 9. (df "O9")

let test_a_values () =
  let st = stage () in
  let cc = Stage.cc st in
  let o9 = Fig4.node cc "O9" in
  let db = Stage.db_of_sink st o9 in
  let a u v = Stage.a_value st ~db ~u:(Fig4.node cc u) ~v:(Fig4.node cc v) in
  feq "A(G6,G7,O9)" 9. (a "G6" "G7");
  feq "A(G3,G6,O9)" 12. (a "G3" "G6");
  feq "A(G5,G7,O9)" 7. (a "G5" "G7");
  feq "A(I2,G5,O9)" 12.2 (a "I2" "G5")

let test_regions () =
  let st = stage () in
  let cc = Stage.cc st in
  let reg n = Stage.region st (Fig4.node cc n) in
  Alcotest.(check bool) "I1 in Vm" true (reg "I1" = Stage.Rm);
  Alcotest.(check bool) "G7 in Vn" true (reg "G7" = Stage.Rn);
  Alcotest.(check bool) "G8 in Vn" true (reg "G8" = Stage.Rn);
  Alcotest.(check bool) "O9 in Vn" true (reg "O9" = Stage.Rn);
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " in Vr") true (reg n = Stage.Rr))
    [ "I2"; "G3"; "G4"; "G5"; "G6" ]

let test_illegal_edges () =
  let st = stage () in
  let cc = Stage.cc st in
  let i1 = Fig4.node cc "I1" and g3 = Fig4.node cc "G3" in
  Alcotest.(check bool) "(I1,G3) illegal" true
    (List.mem (i1, g3) (Stage.illegal_edges st))

let test_g_of_o9 () =
  let st = stage () in
  let cc = Stage.cc st in
  match Stage.classify st (Fig4.node cc "O9") with
  | Stage.Target { cut } ->
    let names = List.sort compare (List.map (name_of st) cut) in
    Alcotest.(check (list string)) "g(O9)" [ "G4"; "G5"; "G6" ] names
  | Stage.Never_ed -> Alcotest.fail "O9 classified never-ed"
  | Stage.Always_ed -> Alcotest.fail "O9 classified always-ed"

let run ?solver spec c =
  match Engine.run (Engine.config ?solver ~c spec) (stage ()) with
  | Ok r -> r
  | Error e -> Alcotest.fail (Rar_retime.Error.to_string e)

let run_grar ?solver c = run ?solver Engine.Grar c

(* The retiming extras of a base or G-RAR run: (lp_latches,
   modelled_non_ed). *)
let retiming (r : Engine.result) =
  match r.Engine.extras with
  | Engine.Retiming { lp_latches; modelled_non_ed; _ } ->
    (lp_latches, modelled_non_ed)
  | _ -> Alcotest.fail "a retiming run reports its LP solution"

let test_grar_high_overhead () =
  (* c = 2: Cut2 wins; O9 becomes non-error-detecting. *)
  let r = run_grar 2.0 in
  let o = r.Engine.outcome in
  Alcotest.(check int) "slaves" 3 o.Outcome.n_slaves;
  Alcotest.(check int) "edl" 0 (Outcome.ed_count o);
  feq "seq area (4 units)" 4.0 o.Outcome.seq_area;
  Alcotest.(check int) "non-ed modelled" 1 (List.length (snd (retiming r)));
  match o.Outcome.arrivals with
  | [| (_, a) |] -> feq "O9 arrival" 9.0 a
  | _ -> Alcotest.fail "expected exactly one sink"

let test_grar_low_overhead () =
  (* c = 0.5: the EDL is cheap; min-latch Cut1 wins. *)
  let o = (run_grar 0.5).Engine.outcome in
  Alcotest.(check int) "slaves" 2 o.Outcome.n_slaves;
  Alcotest.(check int) "edl" 1 (Outcome.ed_count o);
  feq "seq area" 3.5 o.Outcome.seq_area

let test_base_retiming () =
  (* Base retiming ignores the EDL overhead: Cut1 at any c. *)
  let r = run Engine.Base 2.0 in
  let o = r.Engine.outcome in
  Alcotest.(check int) "slaves" 2 o.Outcome.n_slaves;
  Alcotest.(check int) "edl" 1 (Outcome.ed_count o);
  feq "seq area (5 units)" 5.0 o.Outcome.seq_area;
  feq "lp latch count" 2.0 (fst (retiming r))

let test_engines_agree () =
  List.iter
    (fun engine ->
      let r = run_grar ~solver:engine 2.0 in
      feq
        ("seq area with " ^ Difflp.engine_name engine)
        4.0 r.Engine.outcome.Outcome.seq_area)
    Difflp.all_engines

let test_initial_design_violates () =
  (* Slaves at the sources make the I1 path arrive at 14 > 12.5: the
     un-retimed two-phase design is illegal, which is exactly why
     pi_a/I1 land in V_m. *)
  let st = stage () in
  let o = Outcome.of_initial ~c:2.0 st in
  Alcotest.(check int) "initial slaves" 2 o.Outcome.n_slaves;
  Alcotest.(check bool) "initial design violates" true
    (o.Outcome.violations <> [])

let test_placement_legality () =
  let st = stage () in
  let g = Rgraph.build ~edl_overhead:2.0 st in
  match Rgraph.solve g with
  | Error e -> Alcotest.fail (Rar_retime.Error.to_string e)
  | Ok r ->
    let p = Rgraph.placements_of g r in
    Alcotest.(check bool) "legal" true (Rgraph.check_legal g p = Ok ());
    (* physical realisation round-trips through the netlist builder *)
    let staged = Transform.apply_retiming (Stage.cc st) p in
    Alcotest.(check bool) "physical netlist valid" true
      (Rar_netlist.Netlist.validate staged = Ok ())

let suite =
  [
    Alcotest.test_case "forward delays match paper" `Quick test_forward_delays;
    Alcotest.test_case "A values match paper" `Quick test_a_values;
    Alcotest.test_case "regions match paper" `Quick test_regions;
    Alcotest.test_case "illegal edges found" `Quick test_illegal_edges;
    Alcotest.test_case "g(O9) cut set" `Quick test_g_of_o9;
    Alcotest.test_case "G-RAR high overhead picks Cut2" `Quick
      test_grar_high_overhead;
    Alcotest.test_case "G-RAR low overhead picks Cut1" `Quick
      test_grar_low_overhead;
    Alcotest.test_case "base retiming picks Cut1" `Quick test_base_retiming;
    Alcotest.test_case "all engines agree" `Quick test_engines_agree;
    Alcotest.test_case "initial design violates" `Quick
      test_initial_design_violates;
    Alcotest.test_case "placements legal and realisable" `Quick
      test_placement_legality;
  ]
