(* Benchmark generator tests: structural invariants, determinism,
   calibration against the spec targets, and the Plasma pipeline. *)

module Netlist = Rar_netlist.Netlist
module Stats = Rar_netlist.Stats
module Spec = Rar_circuits.Spec
module Generator = Rar_circuits.Generator
module Plasma = Rar_circuits.Plasma
module Suite = Rar_circuits.Suite
module Clocking = Rar_sta.Clocking

let test_specs_well_formed () =
  List.iter
    (fun (s : Spec.t) ->
      Alcotest.(check bool) (s.Spec.name ^ " positive") true
        (s.Spec.n_flops > 0 && s.Spec.n_gates > 0 && s.Spec.depth > 1
        && s.Spec.nce_target <= s.Spec.n_flops + s.Spec.n_po))
    Spec.table_i

let test_generator_counts () =
  List.iter
    (fun name ->
      let spec = Option.get (Spec.find name) in
      let net = Generator.generate spec in
      let st = Stats.compute net in
      Alcotest.(check int) (name ^ " flops") spec.Spec.n_flops st.Stats.n_flops;
      Alcotest.(check int) (name ^ " pis") spec.Spec.n_pi st.Stats.n_inputs;
      Alcotest.(check int) (name ^ " gates") spec.Spec.n_gates st.Stats.n_gates;
      Alcotest.(check bool) (name ^ " valid") true (Netlist.validate net = Ok ()))
    [ "s1196"; "s1423"; "s5378" ]

let test_generator_deterministic () =
  let spec = Option.get (Spec.find "s1238") in
  let a = Generator.generate spec and b = Generator.generate spec in
  Alcotest.(check int) "same node count" (Netlist.node_count a)
    (Netlist.node_count b);
  (* spot-check structure equality via the bench printer *)
  Alcotest.(check string) "identical netlists"
    (Rar_netlist.Bench_io.print a)
    (Rar_netlist.Bench_io.print b)

let test_no_dangling_logic () =
  let spec = Option.get (Spec.find "s1196") in
  let net = Generator.generate spec in
  for v = 0 to Netlist.node_count net - 1 do
    match Netlist.kind net v with
    | Netlist.Gate _ | Netlist.Input ->
      Alcotest.(check bool)
        (Netlist.node_name net v ^ " has fanout")
        true
        (Netlist.fanout_count net v > 0)
    | Netlist.Output | Netlist.Seq _ -> ()
  done

let test_nce_calibration () =
  (* The measured near-critical endpoint count should track the spec's
     target within a loose band. *)
  List.iter
    (fun name ->
      let spec = Option.get (Spec.find name) in
      match Suite.load name with
      | Error e -> Alcotest.fail e
      | Ok p ->
        let target = float_of_int spec.Spec.nce_target in
        let measured = float_of_int p.Suite.nce in
        Alcotest.(check bool)
          (Printf.sprintf "%s nce %d vs target %d" name p.Suite.nce
             spec.Spec.nce_target)
          true
          (measured >= 0.4 *. target && measured <= 2.5 *. target))
    [ "s1196"; "s1423"; "s13207" ]

let test_clock_split () =
  match Suite.load "s1238" with
  | Error e -> Alcotest.fail e
  | Ok p ->
    let c = p.Suite.clocking in
    (* §VI-A: phi1 = 0.3P, gamma1 = 0, phi2 = 0.35P, gamma2 = 0.05P *)
    (match c with
    | Clocking.Two_phase { phi1; gamma1; phi2; gamma2 } ->
      Alcotest.(check (float 1e-9)) "phi1" (0.3 *. p.Suite.p) phi1;
      Alcotest.(check (float 1e-9)) "gamma1" 0. gamma1;
      Alcotest.(check (float 1e-9)) "phi2" (0.35 *. p.Suite.p) phi2;
      Alcotest.(check (float 1e-9)) "gamma2" (0.05 *. p.Suite.p) gamma2
    | Clocking.Three_phase _ -> Alcotest.fail "expected a two-phase clocking");
    Alcotest.(check int) "phases" 2 (Clocking.phases c);
    Alcotest.(check (float 1e-9)) "period" (0.7 *. p.Suite.p)
      (Clocking.period c)

let test_plasma_structure () =
  let net = Plasma.generate () in
  let st = Stats.compute net in
  Alcotest.(check bool) "valid" true (Netlist.validate net = Ok ());
  Alcotest.(check bool) "cpu-scale flop count" true
    (st.Stats.n_flops > 1200 && st.Stats.n_flops < 2000);
  Alcotest.(check bool) "cpu-scale gates" true (st.Stats.n_gates > 3000);
  (* carry chains give a much deeper profile than the random DAGs *)
  Alcotest.(check bool) "deep carry chains" true (st.Stats.depth > 40);
  (* the register file is there *)
  Alcotest.(check bool) "register file bit rf5_17 exists" true
    (Netlist.find net "rf5_17" <> None)

let test_suite_load_unknown () =
  match Suite.load "s9999" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected unknown-benchmark error"

let test_fig4_registered () =
  let cc = Rar_circuits.Fig4.circuit () in
  let comb = cc.Rar_netlist.Transform.comb in
  Alcotest.(check int) "two sources" 2 (Array.length (Netlist.inputs comb));
  Alcotest.(check int) "one sink" 1 (Array.length (Netlist.outputs comb))

(* The genuine s27 ISCAS89 netlist (also vendored under
   examples/data/s27.bench): the real-data path through parse,
   prepare and both engines. *)
let s27 =
  "INPUT(G0)\nINPUT(G1)\nINPUT(G2)\nINPUT(G3)\nOUTPUT(G17)\n\
   G5 = DFF(G10)\nG6 = DFF(G11)\nG7 = DFF(G13)\nG14 = NOT(G0)\n\
   G17 = NOT(G11)\nG8 = AND(G14, G6)\nG15 = OR(G12, G8)\n\
   G16 = OR(G3, G8)\nG9 = NAND(G16, G15)\nG10 = NOR(G14, G11)\n\
   G11 = NOR(G5, G9)\nG12 = NOR(G1, G7)\nG13 = NAND(G2, G12)\n"

let test_real_s27 () =
  match Rar_netlist.Bench_io.parse_diag s27 with
  | Error d -> Alcotest.fail (Rar_util.Diag.to_string d)
  | Ok net -> (
    let st = Stats.compute net in
    Alcotest.(check int) "flops" 3 st.Stats.n_flops;
    Alcotest.(check int) "gates" 10 st.Stats.n_gates;
    let p = Suite.prepare net in
    match
      Rar_retime.Stage.make ~lib:p.Suite.lib ~clocking:p.Suite.clocking
        p.Suite.cc
    with
    | Error e -> Alcotest.fail (Rar_retime.Error.to_string e)
    | Ok stage ->
      List.iter
        (fun spec ->
          match Rar_engine.run (Rar_engine.config ~c:2.0 spec) stage with
          | Ok r ->
            Alcotest.(check (list int)) "no violations" []
              r.Rar_engine.outcome.Rar_retime.Outcome.violations
          | Error e -> Alcotest.fail (Rar_retime.Error.to_string e))
        [ Rar_engine.Grar; Rar_engine.Base ])

let prop_generated_bench_roundtrip =
  QCheck.Test.make ~name:"generated circuits roundtrip through .bench"
    ~count:6
    QCheck.(int_bound 30)
    (fun seed ->
      let spec =
        {
          Spec.name = "rt";
          n_flops = 5 + seed;
          n_pi = 3;
          n_po = 2;
          n_gates = 60 + (3 * seed);
          depth = 6;
          nce_target = 2;
          seed = Printf.sprintf "rt%d" seed;
          src_bias_pct = 55;
        }
      in
      let net = Generator.generate spec in
      let text = Rar_netlist.Bench_io.print net in
      match Rar_netlist.Bench_io.parse_diag text with
      | Error _ -> false
      | Ok net2 ->
        let a = Stats.compute net and b = Stats.compute net2 in
        a.Stats.n_gates = b.Stats.n_gates
        && a.Stats.n_flops = b.Stats.n_flops
        && a.Stats.n_inputs = b.Stats.n_inputs
        && a.Stats.depth = b.Stats.depth)

(* Whole-netlist digest of a prepared suite circuit (names, kinds,
   drives, fanin wiring of the two-phase form). Pinning the hex values
   freezes the generator's RNG streams and the latch transform: any
   change that perturbs a single node or edge of these circuits —
   however well-intentioned — must show up here and bump the pins
   deliberately. *)
let suite_digest name =
  match Suite.load name with
  | Error e -> Alcotest.failf "%s: %s" name e
  | Ok c -> Netlist.digest c.Suite.two_phase

let check_digests pairs =
  List.iter
    (fun (name, hex) ->
      Alcotest.(check string) (name ^ " two-phase digest") hex
        (suite_digest name))
    pairs

let test_suite_digests_small () =
  check_digests
    [
      ("s1196", "aaa7d41b2c8bcc21c792216d0f639998");
      ("s1238", "b5971a3307897ba22fc24fc81bf790b9");
      ("s1423", "093761154f413900a53686c41a2c145c");
      ("s1488", "7fff30ef76b995a9a53e4528178a1e3f");
    ]

let test_suite_digests_large () =
  check_digests [ ("s5378", "b474786924a1e211f18de0fe0bf8eeeb") ]

let suite =
  [
    Alcotest.test_case "specs well-formed" `Quick test_specs_well_formed;
    Alcotest.test_case "real s27 end to end" `Quick test_real_s27;
    QCheck_alcotest.to_alcotest prop_generated_bench_roundtrip;
    Alcotest.test_case "generator matches spec counts" `Quick
      test_generator_counts;
    Alcotest.test_case "generator deterministic" `Quick
      test_generator_deterministic;
    Alcotest.test_case "no dangling logic" `Quick test_no_dangling_logic;
    Alcotest.test_case "NCE calibration" `Quick test_nce_calibration;
    Alcotest.test_case "clock split per paper" `Quick test_clock_split;
    Alcotest.test_case "plasma structure" `Quick test_plasma_structure;
    Alcotest.test_case "unknown benchmark rejected" `Quick
      test_suite_load_unknown;
    Alcotest.test_case "fig4 interface" `Quick test_fig4_registered;
    Alcotest.test_case "suite digests pinned (small)" `Quick
      test_suite_digests_small;
    Alcotest.test_case "suite digests pinned (s5378)" `Quick
      test_suite_digests_large;
  ]
