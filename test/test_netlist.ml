(* Netlist structure, transforms and .bench round-trip tests. *)

module Netlist = Rar_netlist.Netlist
module Cell_kind = Rar_netlist.Cell_kind
module Transform = Rar_netlist.Transform
module Convert = Rar_netlist.Convert
module Bench_io = Rar_netlist.Bench_io
module Stats = Rar_netlist.Stats
module B = Netlist.Builder

(* A small sequential circuit:
   pi -> g1(inv) -> ff -> g2(nand with pi) -> po *)
let small_seq () =
  let b = B.create ~name:"small" () in
  let pi = B.add_input b "pi" in
  let g1 = B.add_gate b "g1" ~fn:Cell_kind.Inv ~fanins:[ pi ] () in
  let ff = B.add_seq b "ff" ~role:Netlist.Flop ~fanin:g1 in
  let g2 = B.add_gate b "g2" ~fn:Cell_kind.Nand ~fanins:[ pi; ff ] () in
  let _po = B.add_output b "po" ~fanin:g2 in
  B.freeze b

let test_builder_basic () =
  let net = small_seq () in
  Alcotest.(check int) "nodes" 5 (Netlist.node_count net);
  Alcotest.(check int) "inputs" 1 (Array.length (Netlist.inputs net));
  Alcotest.(check int) "outputs" 1 (Array.length (Netlist.outputs net));
  Alcotest.(check int) "gates" 2 (Array.length (Netlist.gates net));
  Alcotest.(check bool) "validate" true (Netlist.validate net = Ok ());
  match Netlist.find net "g2" with
  | None -> Alcotest.fail "find"
  | Some g2 ->
    Alcotest.(check int) "g2 fanins" 2 (Array.length (Netlist.fanins net g2))

let test_comb_cycle_rejected () =
  let b = B.create () in
  let g1 = B.add_gate_deferred b "g1" ~fn:Cell_kind.Inv () in
  let g2 = B.add_gate b "g2" ~fn:Cell_kind.Inv ~fanins:[ g1 ] () in
  B.connect b g1 ~fanins:[ g2 ];
  match B.freeze b with
  | exception Failure msg ->
    Alcotest.(check bool) "mentions cycle" true
      (String.length msg > 0
      && Option.is_some
           (String.index_opt msg 'c') (* "cycle" appears *))
  | _ -> Alcotest.fail "expected combinational cycle rejection"

let test_seq_cycle_accepted () =
  (* A flop in the loop makes the cycle legal. *)
  let b = B.create () in
  let g1 = B.add_gate_deferred b "g1" ~fn:Cell_kind.Inv () in
  let ff = B.add_seq b "ff" ~role:Netlist.Flop ~fanin:g1 in
  B.connect b g1 ~fanins:[ ff ];
  let net = B.freeze b in
  Alcotest.(check int) "nodes" 2 (Netlist.node_count net)

let test_duplicate_names_rejected () =
  let b = B.create () in
  let _ = B.add_input b "x" in
  let _ = B.add_input b "x" in
  match B.freeze b with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected duplicate-name rejection"

let test_arity_checked () =
  let b = B.create () in
  let pi = B.add_input b "pi" in
  let _ = B.add_gate b "bad" ~fn:Cell_kind.Mux2 ~fanins:[ pi ] () in
  match B.freeze b with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected arity rejection"

let test_cones () =
  let net = small_seq () in
  let g2 = Option.get (Netlist.find net "g2") in
  let cone = Netlist.fanin_cone net g2 in
  let pi = Option.get (Netlist.find net "pi") in
  let ff = Option.get (Netlist.find net "ff") in
  let g1 = Option.get (Netlist.find net "g1") in
  Alcotest.(check bool) "pi in cone" true cone.(pi);
  Alcotest.(check bool) "ff in cone" true cone.(ff);
  Alcotest.(check bool) "cone stops at seq" false cone.(g1)

let test_split () =
  let net = Convert.split Convert.Two (small_seq ()) in
  let stats = Stats.compute net in
  Alcotest.(check int) "no flops left" 0 stats.Stats.n_flops;
  Alcotest.(check int) "one master" 1 stats.Stats.n_masters;
  Alcotest.(check int) "one slave" 1 stats.Stats.n_slaves;
  Alcotest.(check bool) "still valid" true (Netlist.validate net = Ok ());
  (* the master feeds the slave *)
  let m = Option.get (Netlist.find net "ff$m") in
  let s = Option.get (Netlist.find net "ff$s") in
  Alcotest.(check int) "slave fed by master" m (Netlist.fanins net s).(0)

let test_split_passes_latches () =
  (* a second split finds no flop and copies every node unchanged *)
  let two = Convert.split Convert.Two (small_seq ()) in
  Alcotest.(check string) "digest" (Netlist.digest two)
    (Netlist.digest (Convert.split Convert.Two two))

let test_with_fanins () =
  let net = small_seq () in
  let id name = Option.get (Netlist.find net name) in
  let pi = id "pi" and ff = id "ff" and g2 = id "g2" in
  let net' = Netlist.with_fanins net [ (g2, [| pi; pi |]) ] in
  Alcotest.(check string) "ids and names kept" (Netlist.node_name net g2)
    (Netlist.node_name net' g2);
  Alcotest.(check (array int)) "new fanins" [| pi; pi |]
    (Netlist.fanins net' g2);
  Alcotest.(check (array int)) "old driver loses the fanout" [||]
    (Netlist.fanouts net' ff);
  Alcotest.(check int) "compact view rebuilt" 0
    (let c = Netlist.compact net' in
     Netlist.Compact.fanout_hi c ff - Netlist.Compact.fanout_lo c ff);
  Alcotest.(check (array int)) "input untouched" [| pi; ff |]
    (Netlist.fanins net g2);
  match Netlist.with_fanins net [ (g2, [| g2; pi |]) ] with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected a combinational cycle to be rejected"

let test_extract_comb () =
  let two = Convert.split Convert.Two (small_seq ()) in
  let cc = Transform.extract_comb two in
  let comb = cc.Transform.comb in
  Alcotest.(check int) "sources: pi + master" 2
    (Array.length (Netlist.inputs comb));
  Alcotest.(check int) "sinks: po + master" 2
    (Array.length (Netlist.outputs comb));
  Alcotest.(check int) "gates preserved" 2 (Array.length (Netlist.gates comb));
  (* [orig] maps every comb node back: gates to themselves, sources and
     sinks to the primary input/output or the master they stand for *)
  let orig_name v = Netlist.node_name two cc.Transform.orig.(v) in
  let names vs = List.sort compare (Array.to_list (Array.map orig_name vs)) in
  Alcotest.(check (list string)) "source origins" [ "ff$m"; "pi" ]
    (names (Netlist.inputs comb));
  Alcotest.(check (list string)) "sink origins" [ "ff$m"; "po" ]
    (names (Netlist.outputs comb));
  Array.iter
    (fun g ->
      Alcotest.(check string) "gate origin" (Netlist.node_name comb g)
        (orig_name g))
    (Netlist.gates comb);
  Alcotest.(check bool) "comb is valid" true (Netlist.validate comb = Ok ());
  Alcotest.(check int) "no seq nodes" 0 (Array.length (Netlist.seqs comb))

let test_apply_retiming_initial_position () =
  let two = Convert.split Convert.Two (small_seq ()) in
  let cc = Transform.extract_comb two in
  let comb = cc.Transform.comb in
  (* Place one slave after every source = the un-retimed design. *)
  let placements =
    Array.to_list
      (Array.map
         (fun src ->
           let latched =
             Array.to_list (Netlist.fanouts comb src)
             |> List.map (fun v ->
                    let pins = ref [] in
                    Array.iteri
                      (fun pin u -> if u = src then pins := (v, pin) :: !pins)
                      (Netlist.fanins comb v);
                    !pins)
             |> List.concat
           in
           { Transform.after = src; latched })
         (Netlist.inputs comb))
  in
  let staged = Transform.apply_retiming cc placements in
  let stats = Stats.compute staged in
  Alcotest.(check int) "two slaves" 2 stats.Stats.n_slaves;
  Alcotest.(check bool) "valid" true (Netlist.validate staged = Ok ());
  (* every comb node keeps its id; the slaves come after them *)
  for v = 0 to Netlist.node_count comb - 1 do
    Alcotest.(check string) "comb id kept" (Netlist.node_name comb v)
      (Netlist.node_name staged v)
  done;
  Array.iter
    (fun s ->
      Alcotest.(check bool) "slave appended" true
        (s >= Netlist.node_count comb))
    (Netlist.seqs staged)

let test_apply_retiming_rejects_bad_pin () =
  let two = Convert.split Convert.Two (small_seq ()) in
  let cc = Transform.extract_comb two in
  let comb = cc.Transform.comb in
  let some_gate = (Netlist.gates comb).(0) in
  let src = (Netlist.inputs comb).(0) in
  (match
     Transform.apply_retiming cc
       [ { Transform.after = src; latched = [ (some_gate, 99) ] } ]
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected pin range rejection");
  ignore comb

(* --- .bench round trip -------------------------------------------- *)

let s27_text =
  "# s27-like toy\n\
   INPUT(a)\n\
   INPUT(b)\n\
   INPUT(c)\n\
   OUTPUT(y)\n\
   f1 = DFF(n2)\n\
   n1 = NAND(a, f1)\n\
   n2 = NOR(n1, b)\n\
   inv1 = NOT(c)\n\
   y = AND(n2, inv1)\n"

let parse_bench text =
  Result.map_error Rar_util.Diag.to_string (Bench_io.parse_diag text)

let test_bench_parse () =
  match parse_bench s27_text with
  | Error e -> Alcotest.fail e
  | Ok net ->
    let stats = Stats.compute net in
    Alcotest.(check int) "inputs" 3 stats.Stats.n_inputs;
    Alcotest.(check int) "outputs" 1 stats.Stats.n_outputs;
    Alcotest.(check int) "flops" 1 stats.Stats.n_flops;
    Alcotest.(check int) "gates" 4 stats.Stats.n_gates

let test_bench_roundtrip () =
  match parse_bench s27_text with
  | Error e -> Alcotest.fail e
  | Ok net -> (
    let text = Bench_io.print net in
    match parse_bench text with
    | Error e -> Alcotest.fail ("reparse: " ^ e)
    | Ok net2 ->
      let s1 = Rar_netlist.Stats.compute net and s2 = Stats.compute net2 in
      Alcotest.(check int) "gates" s1.Stats.n_gates s2.Stats.n_gates;
      Alcotest.(check int) "flops" s1.Stats.n_flops s2.Stats.n_flops;
      Alcotest.(check int) "inputs" s1.Stats.n_inputs s2.Stats.n_inputs;
      Alcotest.(check int) "depth" s1.Stats.depth s2.Stats.depth)

let test_bench_errors () =
  (match parse_bench "n1 = FROB(a)\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown op should fail");
  (match parse_bench "INPUT(a)\nn1 = NAND(a, ghost)\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "undefined signal should fail");
  match parse_bench "INPUT(a)\nINPUT(a)\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "duplicate signal should fail"

let prop_staged_extract_roundtrip =
  (* Materialising a slave placement and re-cutting the result yields
     the same combinational topology with the slaves bypassed. *)
  QCheck.Test.make ~name:"apply_retiming / extract_comb roundtrip" ~count:10
    QCheck.(int_bound 30)
    (fun seed ->
      let spec =
        { Rar_circuits.Spec.name = "rt2"; n_flops = 6 + seed; n_pi = 3;
          n_po = 2; n_gates = 80 + (4 * seed); depth = 6; nce_target = 2;
          seed = Printf.sprintf "rt2-%d" seed; src_bias_pct = 55 }
      in
      let net = Rar_circuits.Generator.generate spec in
      let cc = Transform.extract_comb (Convert.split Convert.Two net) in
      let comb = cc.Transform.comb in
      (* initial placement: a slave at every source *)
      let placements =
        Array.to_list (Netlist.inputs comb)
        |> List.filter_map (fun src ->
               let latched =
                 Array.to_list (Netlist.fanouts comb src)
                 |> List.sort_uniq compare
                 |> List.concat_map (fun v ->
                        let pins = ref [] in
                        Array.iteri
                          (fun pin u ->
                            if u = src then pins := (v, pin) :: !pins)
                          (Netlist.fanins comb v);
                        !pins)
               in
               if latched = [] then None
               else Some { Transform.after = src; latched })
      in
      let staged = Transform.apply_retiming cc placements in
      let cc2 = Transform.extract_comb staged in
      let s1 = Stats.compute comb and s2 = Stats.compute cc2.Transform.comb in
      s1.Stats.n_gates = s2.Stats.n_gates
      && s1.Stats.depth = s2.Stats.depth
      && Array.length (Netlist.inputs comb)
         = Array.length (Netlist.inputs cc2.Transform.comb))

(* --- structural verilog -------------------------------------------- *)

module Verilog_io = Rar_netlist.Verilog_io

let parse_verilog text =
  Result.map_error Rar_util.Diag.to_string (Verilog_io.parse_diag text)

let test_verilog_roundtrip () =
  match parse_bench s27_text with
  | Error e -> Alcotest.fail e
  | Ok net -> (
    let text = Verilog_io.print net in
    match parse_verilog text with
    | Error e -> Alcotest.fail ("verilog reparse: " ^ e)
    | Ok net2 ->
      let s1 = Stats.compute net and s2 = Stats.compute net2 in
      Alcotest.(check int) "gates" s1.Stats.n_gates s2.Stats.n_gates;
      Alcotest.(check int) "flops" s1.Stats.n_flops s2.Stats.n_flops;
      Alcotest.(check int) "inputs" s1.Stats.n_inputs s2.Stats.n_inputs;
      Alcotest.(check int) "outputs" s1.Stats.n_outputs s2.Stats.n_outputs;
      Alcotest.(check int) "depth" s1.Stats.depth s2.Stats.depth)

let test_verilog_roundtrip_two_phase () =
  (* master/slave cells survive the trip *)
  match parse_bench s27_text with
  | Error e -> Alcotest.fail e
  | Ok net -> (
    let two = Convert.split Convert.Two net in
    match parse_verilog (Verilog_io.print two) with
    | Error e -> Alcotest.fail e
    | Ok net2 ->
      let s1 = Stats.compute two and s2 = Stats.compute net2 in
      Alcotest.(check int) "masters" s1.Stats.n_masters s2.Stats.n_masters;
      Alcotest.(check int) "slaves" s1.Stats.n_slaves s2.Stats.n_slaves)

let test_verilog_drive_attr () =
  let b = Netlist.Builder.create ~name:"drv" () in
  let pi = Netlist.Builder.add_input b "a" in
  let g =
    Netlist.Builder.add_gate b "g" ~fn:Cell_kind.Nand ~drive:4
      ~fanins:[ pi; pi ] ()
  in
  let _ = Netlist.Builder.add_output b "y" ~fanin:g in
  let net = Netlist.Builder.freeze b in
  match parse_verilog (Verilog_io.print net) with
  | Error e -> Alcotest.fail e
  | Ok net2 -> (
    match Netlist.kind net2 (Option.get (Netlist.find net2 "g")) with
    | Netlist.Gate { drive; _ } -> Alcotest.(check int) "drive kept" 4 drive
    | _ -> Alcotest.fail "gate lost")

let test_verilog_rejects_garbage () =
  (match parse_verilog "modul x;" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected parse error");
  match parse_verilog "module m (a); input a; frob g (a, a); endmodule" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown cell should fail"

(* --- cell kinds ---------------------------------------------------- *)

let test_cell_eval () =
  let t = true and f = false in
  Alcotest.(check bool) "nand" true (Cell_kind.eval Cell_kind.Nand [| t; f |]);
  Alcotest.(check bool) "nand tt" false (Cell_kind.eval Cell_kind.Nand [| t; t |]);
  Alcotest.(check bool) "xor" true (Cell_kind.eval Cell_kind.Xor [| t; f; f |]);
  Alcotest.(check bool) "aoi21" false
    (Cell_kind.eval Cell_kind.Aoi21 [| t; t; f |]);
  Alcotest.(check bool) "mux sel b" true
    (Cell_kind.eval Cell_kind.Mux2 [| f; t; t |])

let test_cell_names_roundtrip () =
  List.iter
    (fun k ->
      match Cell_kind.of_name (Cell_kind.name k) with
      | Some k' when k = k' -> ()
      | _ -> Alcotest.failf "roundtrip %s" (Cell_kind.name k))
    Cell_kind.all

let prop_eval_matches_demorgan =
  QCheck.Test.make ~name:"nand = not and, nor = not or" ~count:200
    QCheck.(list_of_size Gen.(2 -- 5) bool)
    (fun bits ->
      let a = Array.of_list bits in
      Cell_kind.eval Cell_kind.Nand a = not (Cell_kind.eval Cell_kind.And a)
      && Cell_kind.eval Cell_kind.Nor a = not (Cell_kind.eval Cell_kind.Or a)
      && Cell_kind.eval Cell_kind.Xnor a = not (Cell_kind.eval Cell_kind.Xor a))

let suite =
  [
    Alcotest.test_case "builder basics" `Quick test_builder_basic;
    Alcotest.test_case "comb cycle rejected" `Quick test_comb_cycle_rejected;
    Alcotest.test_case "seq cycle accepted" `Quick test_seq_cycle_accepted;
    Alcotest.test_case "duplicate names rejected" `Quick test_duplicate_names_rejected;
    Alcotest.test_case "arity checked" `Quick test_arity_checked;
    Alcotest.test_case "fanin cone" `Quick test_cones;
    Alcotest.test_case "two-phase conversion" `Quick test_split;
    Alcotest.test_case "split passes latches through" `Quick
      test_split_passes_latches;
    Alcotest.test_case "with_fanins keeps ids, validates" `Quick
      test_with_fanins;
    Alcotest.test_case "comb extraction" `Quick test_extract_comb;
    Alcotest.test_case "apply retiming (initial)" `Quick
      test_apply_retiming_initial_position;
    Alcotest.test_case "apply retiming rejects bad pin" `Quick
      test_apply_retiming_rejects_bad_pin;
    Alcotest.test_case "bench parse" `Quick test_bench_parse;
    Alcotest.test_case "bench roundtrip" `Quick test_bench_roundtrip;
    Alcotest.test_case "bench errors" `Quick test_bench_errors;
    Alcotest.test_case "verilog roundtrip" `Quick test_verilog_roundtrip;
    Alcotest.test_case "verilog two-phase roundtrip" `Quick
      test_verilog_roundtrip_two_phase;
    Alcotest.test_case "verilog drive attribute" `Quick
      test_verilog_drive_attr;
    Alcotest.test_case "verilog rejects garbage" `Quick
      test_verilog_rejects_garbage;
    QCheck_alcotest.to_alcotest prop_staged_extract_roundtrip;
    Alcotest.test_case "cell eval" `Quick test_cell_eval;
    Alcotest.test_case "cell name roundtrip" `Quick test_cell_names_roundtrip;
    QCheck_alcotest.to_alcotest prop_eval_matches_demorgan;
  ]
