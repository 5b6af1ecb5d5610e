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
      Alcotest.(check int) (name ^ " gates") spec.Spec.n_gates st.Stats.n_gates)
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

(* MD5 over what [Netlist.digest] leaves out but STA, stage
   classification and the simulator iterate: the combinational order,
   fanout order, the kind-sorted id arrays and the compact view. *)
let arrays_digest net =
  let b = Buffer.create 4096 in
  let ints tag a =
    Buffer.add_string b tag;
    Array.iter
      (fun x ->
        Buffer.add_string b (string_of_int x);
        Buffer.add_char b ',')
      a;
    Buffer.add_char b ';'
  in
  ints "topo" (Netlist.topo_comb net);
  for v = 0 to Netlist.node_count net - 1 do
    ints "fo" (Netlist.fanouts net v)
  done;
  ints "in" (Netlist.inputs net);
  ints "out" (Netlist.outputs net);
  ints "seq" (Netlist.seqs net);
  ints "gate" (Netlist.gates net);
  let c = Netlist.compact net in
  ints "tags" c.Netlist.Compact.tags;
  ints "fih" c.Netlist.Compact.fanin_head;
  ints "fi" c.Netlist.Compact.fanin;
  ints "foh" c.Netlist.Compact.fanout_head;
  ints "fout" c.Netlist.Compact.fanout;
  ints "ctopo" c.Netlist.Compact.topo;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_suite_arrays_pinned () =
  List.iter
    (fun (name, flop_hex, two_hex, comb_hex) ->
      let flop =
        if name = "plasma" then Plasma.generate ()
        else Generator.generate (Option.get (Spec.find name))
      in
      let two = Rar_netlist.Convert.split Rar_netlist.Convert.Two flop in
      let comb = (Rar_netlist.Transform.extract_comb two).Rar_netlist.Transform.comb in
      Alcotest.(check string) (name ^ " flop arrays") flop_hex (arrays_digest flop);
      Alcotest.(check string) (name ^ " two-phase arrays") two_hex
        (arrays_digest two);
      Alcotest.(check string) (name ^ " comb arrays") comb_hex
        (arrays_digest comb))
    [
      ("s1196", "44ab21e8f774946d0821071d1ae22f82",
       "c3ea89c3d9c88e5a55b23c63b99854e6", "a36700b005e13b9cec6429de77856cfb");
      ("s1238", "2d5e13154aad881723fef50fb6905674",
       "549c6d020df42fe9825bf22fdc741dd2", "cb48cd7431d80bb31b7c9b084661e9d1");
      ("s1423", "513673e52716b618d15b9b714fa3fb65",
       "b6585b17ee12a3d748e2a91310748280", "2d78a0b8ebdf724412b5688133453742");
      ("s1488", "7d3f2ed0a069246ee4e3bcf7ba8bd1c3",
       "adc8bb0ec8621271a3a388f3839a8923", "e997a237be18256729c5813cb9b5e29c");
      ("s5378", "95f596fe86a64a58f2cd0c07383f0a68",
       "7166cd3f51e8125b390b4cc9c76f16d2", "f9d0714e3b4c94286b33f129a45be8c5");
      ("s9234", "040ff5fd4fb76e6526151c32ecbb2c8c",
       "2341867a3ce80545502ba43bce141b43", "bb2a66647bc04bc368ae5941dd7b2307");
      ("s13207", "4aa2dba3597a0b9e1ade7b6eb24b3099",
       "b60632b1387d06d41484283919fe31c6", "f7ecebf3822320639b9a66ac3598e29a");
      ("s15850", "079dd1273bd08bea552d9db56cd2295d",
       "5f06a22db83ce9586aa9dd1c73d15ccf", "b16bb38f5d0e7c7309b127b11a1be099");
      ("s35932", "0d4b7238d8c48d16df3aa3e764052d37",
       "b17b0a856dfa263f5ae41e0fa0efd5cb", "4e7f061af339c7669c51d5e52ed2df1e");
      ("s38417", "110f2ff720349ba667291604c4277de8",
       "0cddfa26915e7c89daa3ec3ac6f41942", "f8d59a40df0c3785a34c08cf8b05e7e6");
      ("s38584", "b0562a17d608f1a905c9dc484cba08a6",
       "e6144db3da63bf5c042df7e83c41be71", "9d1c4506d794148752b309c82592033a");
      ("plasma", "51f59a9a14e62a190dc169d381ffb2d0",
       "da22a6069ff4bdcdb8e0e8d6ec87f953", "176f22a8b7202bf9298246c1b13bd0f2");
    ];
  (* A retimed stage: G-RAR's slaves appended after the comb ids. *)
  match Rar_engine.load_and_run (Rar_engine.config ~c:1.0 Rar_engine.Grar) "s1196" with
  | Error e -> Alcotest.fail (Rar_retime.Error.to_string e)
  | Ok r ->
    let staged =
      Rar_netlist.Transform.apply_retiming
        (Rar_retime.Stage.cc r.Rar_engine.stage)
        r.Rar_engine.outcome.Rar_retime.Outcome.placements
    in
    Alcotest.(check string) "retimed s1196 digest"
      "13054fff67f0fc5df1f41f9630addfc5" (Netlist.digest staged);
    Alcotest.(check string) "retimed s1196 arrays"
      "c682a69d236a141566d5ff4b809c8a2f" (arrays_digest staged)

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
    Alcotest.test_case "suite netlist arrays pinned" `Quick
      test_suite_arrays_pinned;
  ]
