(* The edge-triggered -> latch-based conversion front end: structure
   and determinism of Convert, bounded-simulation equivalence, the
   Verilog -> Convert -> bench round trip, the malformed-Verilog
   diagnostics, the shared sizing defaults, and the suite/clocking
   integration (.conv/.conv3 names, three-phase accessors). *)

module Netlist = Rar_netlist.Netlist
module Convert = Rar_netlist.Convert
module Bench_io = Rar_netlist.Bench_io
module Verilog_io = Rar_netlist.Verilog_io
module Cycle = Rar_sim.Cycle
module Clocking = Rar_sta.Clocking
module Suite = Rar_circuits.Suite
module Generator = Rar_circuits.Generator
module Defaults = Rar_circuits.Defaults
module Spec = Rar_circuits.Spec

let get = function
  | Ok x -> x
  | Error e -> Alcotest.failf "unexpected error: %s" e

let parse_bench text =
  Result.map_error Rar_util.Diag.to_string (Bench_io.parse_diag text)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let get_id net name =
  match Netlist.find net name with
  | Some v -> v
  | None -> Alcotest.failf "node %s missing" name

let small_spec seed =
  {
    Spec.name = Printf.sprintf "conv%d" seed;
    n_flops = 6 + (seed mod 5);
    n_pi = 4;
    n_po = 4;
    n_gates = 60 + (7 * (seed mod 9));
    depth = 5;
    nce_target = 2;
    seed = Printf.sprintf "convert-test-%d" seed;
    src_bias_pct = 55;
  }

let count_role net role =
  Array.fold_left
    (fun acc v ->
      if Netlist.kind net v = Netlist.Seq role then acc + 1 else acc)
    0 (Netlist.seqs net)

(* --- Convert structure ------------------------------------------------ *)

let test_structure_two () =
  let net = Generator.generate (small_spec 1) in
  let conv, stats = get (Convert.run net) in
  let flops = count_role net Netlist.Flop in
  Alcotest.(check int) "flops counted" flops stats.Convert.flops;
  Alcotest.(check int) "masters" flops stats.Convert.masters;
  Alcotest.(check int) "slaves" flops stats.Convert.slaves;
  Alcotest.(check int) "master nodes" flops (count_role conv Netlist.Master);
  Alcotest.(check int) "slave nodes" flops (count_role conv Netlist.Slave);
  Alcotest.(check int) "no flops left" 0 (count_role conv Netlist.Flop);
  (* every flop name x becomes x$m / x$s, slave fed by the master *)
  Array.iter
    (fun v ->
      match Netlist.kind net v with
      | Netlist.Seq Netlist.Flop ->
        let x = Netlist.node_name net v in
        let m = get_id conv (x ^ "$m") and s = get_id conv (x ^ "$s") in
        Alcotest.(check bool)
          "master role" true
          (Netlist.kind conv m = Netlist.Seq Netlist.Master);
        Alcotest.(check bool)
          "slave fed by master" true
          ((Netlist.fanins conv s).(0) = m)
      | _ -> ())
    (Netlist.seqs net)

let test_structure_three () =
  let net = Generator.generate (small_spec 2) in
  let conv, stats = get (Convert.run ~phases:Convert.Three net) in
  let flops = count_role net Netlist.Flop in
  Alcotest.(check int) "masters" flops stats.Convert.masters;
  Alcotest.(check int) "slaves = 2x flops" (2 * flops) stats.Convert.slaves;
  Alcotest.(check int)
    "slave nodes" (2 * flops)
    (count_role conv Netlist.Slave);
  Array.iter
    (fun v ->
      match Netlist.kind net v with
      | Netlist.Seq Netlist.Flop ->
        let x = Netlist.node_name net v in
        let s = get_id conv (x ^ "$s") and t = get_id conv (x ^ "$t") in
        Alcotest.(check bool)
          "phase-3 latch chained" true
          ((Netlist.fanins conv t).(0) = s)
      | _ -> ())
    (Netlist.seqs net)

let test_deterministic () =
  let spec = small_spec 3 in
  let d1 =
    Netlist.digest (fst (get (Convert.run (Generator.generate spec))))
  in
  let d2 =
    Netlist.digest (fst (get (Convert.run (Generator.generate spec))))
  in
  Alcotest.(check string) "same digest across runs" d1 d2

let test_rejects_latches () =
  let net = Generator.generate (small_spec 4) in
  let conv, _ = get (Convert.run net) in
  match Convert.run conv with
  | Ok _ -> Alcotest.fail "expected rejection of an already-converted design"
  | Error e ->
    Alcotest.(check bool) "mentions latches" true (contains e "master/slave")

(* --- simulation equivalence ------------------------------------------- *)

let equiv_prop phases seed =
  let net = Generator.generate (small_spec seed) in
  let conv, _ = get (Convert.run ~phases net) in
  match
    Cycle.equivalent ~cycles:48
      ~seed:(Printf.sprintf "equiv-%d" seed)
      net conv
  with
  | Ok _ -> true
  | Error e -> QCheck.Test.fail_reportf "mismatch: %s" e

let qcheck_equiv_two =
  QCheck.Test.make ~name:"converted two-phase is cycle-equivalent" ~count:6
    QCheck.(int_bound 1000)
    (equiv_prop Convert.Two)

let qcheck_equiv_three =
  QCheck.Test.make ~name:"converted three-phase is cycle-equivalent" ~count:6
    QCheck.(int_bound 1000)
    (equiv_prop Convert.Three)

let test_equiv_iscas () =
  List.iter
    (fun name ->
      let net = Generator.generate (Option.get (Spec.find name)) in
      let conv, _ = get (Convert.run net) in
      let n = get (Cycle.equivalent ~cycles:64 ~seed:(name ^ "-eq") net conv) in
      Alcotest.(check int) (name ^ " cycles") 64 n)
    [ "s1196"; "s1423" ]

let test_detects_mismatch () =
  (* a netlist that is NOT equivalent (inverter vs buffer) must fail *)
  let build fn =
    let module B = Netlist.Builder in
    let b = B.create ~name:"m" () in
    let a = B.add_input b "a" in
    let g = B.add_gate_deferred b "g" ~fn () in
    let o = B.add_output_deferred b "o" in
    B.connect b g ~fanins:[ a ];
    B.connect b o ~fanins:[ g ];
    B.freeze b
  in
  match
    Cycle.equivalent ~cycles:8 ~seed:"neq"
      (build Rar_netlist.Cell_kind.Buf)
      (build Rar_netlist.Cell_kind.Inv)
  with
  | Ok _ -> Alcotest.fail "buf vs inv reported equivalent"
  | Error _ -> ()

let test_cycle_semantics () =
  (* o(t) = a(t-1) through a single flop: state is released one cycle
     after capture. *)
  let module B = Netlist.Builder in
  let b = B.create ~name:"pipe1" () in
  let a = B.add_input b "a" in
  let f = B.add_seq_deferred b "f" ~role:Netlist.Flop in
  let o = B.add_output_deferred b "o" in
  B.connect b f ~fanins:[ a ];
  B.connect b o ~fanins:[ f ];
  let net = B.freeze b in
  let vectors = [| [| true |]; [| false |]; [| true |]; [| true |] |] in
  let rows = Cycle.run net ~vectors in
  Alcotest.(check (array bool))
    "delayed by one cycle"
    [| false; true; false; true |]
    (Array.map (fun r -> r.(0)) rows)

(* --- round trips ------------------------------------------------------ *)

let test_bench_roundtrip () =
  let net = Generator.generate (small_spec 5) in
  let conv, _ = get (Convert.run net) in
  (* one parse canonicalises node order (ports first); after that the
     text and the frozen digest are fixpoints. *)
  let text = Bench_io.print conv in
  let reparsed = get (parse_bench text) in
  let text2 = Bench_io.print reparsed in
  Alcotest.(check string) "printed text is a fixpoint" text2
    (Bench_io.print (get (parse_bench text2)));
  Alcotest.(check string)
    "digest stable across reparse"
    (Netlist.digest reparsed)
    (Netlist.digest (get (parse_bench text2)));
  Alcotest.(check int)
    "roles survive" (count_role conv Netlist.Master)
    (count_role reparsed Netlist.Master);
  Alcotest.(check int)
    "slaves survive" (count_role conv Netlist.Slave)
    (count_role reparsed Netlist.Slave)

let test_verilog_convert_bench_roundtrip () =
  (* satellite: Verilog_io -> Convert -> Bench_io with frozen-netlist
     digest equality against the in-memory conversion. *)
  let net = Generator.generate (small_spec 6) in
  let direct, _ = get (Convert.run net) in
  let from_verilog =
    match Verilog_io.parse_diag (Verilog_io.print net) with
    | Ok n -> n
    | Error d -> Alcotest.failf "verilog parse: %s" (Rar_util.Diag.to_string d)
  in
  let conv, _ = get (Convert.run from_verilog) in
  (* node ids differ between the two paths (the Verilog writer hoists
     port declarations), so compare the frozen digests after one bench
     parse of each — the canonical order both emitters round-trip to. *)
  let canon n = Netlist.digest (get (parse_bench (Bench_io.print n))) in
  Alcotest.(check string)
    "digest equal through Verilog -> Convert -> bench" (canon direct)
    (canon conv)

let test_verilog_malformed_ffs () =
  let wrap body =
    Printf.sprintf "module m (a, q);\n  input a;\n  output q;\n%s\nendmodule\n"
      body
  in
  let cases =
    [
      ("missing paren", wrap "  dff u1 q_int, a;", "expected (");
      ("missing semi", wrap "  dff u1 (q_int, a)", "expected ;");
      ("empty conns", wrap "  dff u1 ();", "empty connection list");
      ("undriven d pin", wrap "  dff u1 (q_int, nosuch);", "undriven");
      ( "driven twice",
        wrap "  dff u1 (q_int, a);\n  dff u2 (q_int, a);",
        "driven twice" );
      ("unknown cell", wrap "  dlatch u1 (q_int, a);", "unknown cell");
    ]
  in
  List.iter
    (fun (label, text, needle) ->
      match Verilog_io.parse_diag text with
      | Ok _ -> Alcotest.failf "%s: parse unexpectedly succeeded" label
      | Error d ->
        let msg = Rar_util.Diag.to_string d in
        if not (contains msg needle) then
          Alcotest.failf "%s: diagnostic %S lacks %S" label msg needle)
    cases

(* --- shared sizing defaults (CLI docs <-> bench mirror) --------------- *)

let test_defaults_sync () =
  (* the numbers `rar generate --help` documents; a change in Defaults
     must be reflected there and here. *)
  Alcotest.(check int) "gates/25" 25 Defaults.gates_per_flop;
  Alcotest.(check int) "at least 16 flops" 16 Defaults.min_flops;
  Alcotest.(check int) "gates/200" 200 Defaults.gates_per_port;
  Alcotest.(check int) "at least 8 ports" 8 Defaults.min_ports;
  Alcotest.(check int) "flops/8" 8 Defaults.flops_per_nce;
  Alcotest.(check int) "at least 4 nce" 4 Defaults.min_nce;
  Alcotest.(check int) "suite src bias" 55 Defaults.src_bias_pct;
  Alcotest.(check int) "flops floor" 16 (Defaults.flops ~gates:100);
  Alcotest.(check int) "flops scaled" 400 (Defaults.flops ~gates:10_000);
  Alcotest.(check int) "depth at 10^4" 37 (Defaults.depth ~gates:10_000);
  let spec = Defaults.scale_spec ~gates:100_000 in
  Alcotest.(check int) "spec flops" (Defaults.flops ~gates:100_000)
    spec.Spec.n_flops;
  Alcotest.(check int) "spec ports" (Defaults.ports ~gates:100_000)
    spec.Spec.n_pi;
  Alcotest.(check string) "spec seed = name" spec.Spec.name spec.Spec.seed;
  Alcotest.(check string) "canonical name"
    (Printf.sprintf "gen100000x%d" spec.Spec.depth)
    spec.Spec.name

(* --- suite + clocking integration ------------------------------------- *)

let test_suite_conv_names () =
  let p = get (Suite.load "s1196.conv") in
  Alcotest.(check int) "two-phase clock" 2 (Clocking.phases p.Suite.clocking);
  Alcotest.(check int)
    "masters present" p.Suite.n_flops
    (count_role p.Suite.two_phase Netlist.Master);
  Alcotest.(check int)
    "flop base kept" p.Suite.n_flops
    (count_role p.Suite.flop_netlist Netlist.Flop);
  let p3 = get (Suite.load "s1196.conv3") in
  Alcotest.(check int) "three-phase clock" 3 (Clocking.phases p3.Suite.clocking);
  (match Suite.load "nosuch.conv" with
  | Ok _ -> Alcotest.fail "nosuch.conv loaded"
  | Error _ -> ());
  let pipe = get (Suite.load "pipe3") in
  Alcotest.(check string) "pipe name" "pipe3x32" pipe.Suite.name;
  match Suite.load "pipe0" with
  | Ok _ -> Alcotest.fail "pipe0 loaded"
  | Error _ -> ()

let test_three_phase_clocking () =
  let c = Clocking.of_p3 1.0 in
  let feq name a b =
    Alcotest.(check (float 1e-9)) name a b
  in
  Alcotest.(check int) "phases" 3 (Clocking.phases c);
  feq "period 3(phi+gamma)" 0.75 (Clocking.period c);
  feq "window phi+gamma" 0.25 (Clocking.resiliency_window c);
  feq "max delay = p" 1.0 (Clocking.max_delay c);
  feq "slave opens after one phase" 0.25 (Clocking.slave_open c);
  feq "slave closes at 2phi+gamma" 0.45 (Clocking.slave_close c);
  feq "backward budget" 0.75 (Clocking.backward_budget c)

let suite =
  [
    Alcotest.test_case "convert: two-phase structure" `Quick
      test_structure_two;
    Alcotest.test_case "convert: three-phase structure" `Quick
      test_structure_three;
    Alcotest.test_case "convert: deterministic" `Quick test_deterministic;
    Alcotest.test_case "convert: rejects latch input" `Quick
      test_rejects_latches;
    QCheck_alcotest.to_alcotest qcheck_equiv_two;
    QCheck_alcotest.to_alcotest qcheck_equiv_three;
    Alcotest.test_case "convert: ISCAS89 equivalence" `Quick test_equiv_iscas;
    Alcotest.test_case "cycle: detects non-equivalence" `Quick
      test_detects_mismatch;
    Alcotest.test_case "cycle: one-flop delay semantics" `Quick
      test_cycle_semantics;
    Alcotest.test_case "convert: bench round trip" `Quick test_bench_roundtrip;
    Alcotest.test_case "convert: verilog -> bench digest" `Quick
      test_verilog_convert_bench_roundtrip;
    Alcotest.test_case "verilog: malformed FF diagnostics" `Quick
      test_verilog_malformed_ffs;
    Alcotest.test_case "defaults: CLI docs and bench mirror agree" `Quick
      test_defaults_sync;
    Alcotest.test_case "suite: .conv/.conv3/pipe names" `Quick
      test_suite_conv_names;
    Alcotest.test_case "clocking: three-phase accessors" `Quick
      test_three_phase_clocking;
  ]
