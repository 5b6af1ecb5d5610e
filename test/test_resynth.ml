(* Resynthesis tests: functional equivalence (simulation over the
   combinational view with matched input/flop assignments), structural
   effects, and the end-to-end effect on retiming. *)

module Netlist = Rar_netlist.Netlist
module Cell_kind = Rar_netlist.Cell_kind
module Transform = Rar_netlist.Transform
module Stats = Rar_netlist.Stats
module Liberty = Rar_liberty.Liberty
module Resynth = Rar_retime.Resynth
module Spec = Rar_circuits.Spec
module Generator = Rar_circuits.Generator
module Suite = Rar_circuits.Suite
module Rng = Rar_util.Rng
module B = Netlist.Builder

(* Evaluate the combinational view of a sequential netlist: primary
   inputs and flop outputs are assigned by NAME from [assign]; returns
   the values captured at outputs and flop D pins, by name. *)
let eval net assign =
  let n = Netlist.node_count net in
  let values = Array.make n false in
  let results = Hashtbl.create 16 in
  (* sources first: topo_comb may order seq readers before the seq *)
  for v = 0 to n - 1 do
    match Netlist.kind net v with
    | Netlist.Input | Netlist.Seq _ ->
      values.(v) <-
        (match Hashtbl.find_opt assign (Netlist.node_name net v) with
        | Some b -> b
        | None -> false)
    | Netlist.Gate _ | Netlist.Output -> ()
  done;
  Array.iter
    (fun v ->
      match Netlist.kind net v with
      | Netlist.Input | Netlist.Seq _ -> ()
      | Netlist.Gate { fn; _ } ->
        values.(v) <-
          Cell_kind.eval fn
            (Array.map (fun u -> values.(u)) (Netlist.fanins net v))
      | Netlist.Output -> values.(v) <- values.((Netlist.fanins net v).(0)))
    (Netlist.topo_comb net);
  (* capture POs and flop D pins *)
  Array.iter
    (fun v ->
      Hashtbl.replace results (Netlist.node_name net v)
        values.((Netlist.fanins net v).(0)))
    (Netlist.outputs net);
  Array.iter
    (fun v ->
      Hashtbl.replace results
        (Netlist.node_name net v ^ "$D")
        values.((Netlist.fanins net v).(0)))
    (Netlist.seqs net);
  results

let source_names net =
  let acc = ref [] in
  Array.iter (fun v -> acc := Netlist.node_name net v :: !acc) (Netlist.inputs net);
  Array.iter (fun v -> acc := Netlist.node_name net v :: !acc) (Netlist.seqs net);
  !acc

let prop_equivalent =
  QCheck.Test.make ~name:"resynthesis preserves every captured function"
    ~count:8
    QCheck.(int_bound 25)
    (fun seed ->
      let spec =
        { Spec.name = "rs"; n_flops = 8 + seed; n_pi = 4; n_po = 3;
          n_gates = 120 + (5 * seed); depth = 7; nce_target = 3;
          seed = Printf.sprintf "rs%d" seed; src_bias_pct = 55 }
      in
      let net = Generator.generate spec in
      let net', _ = Resynth.optimize ~lib:(Liberty.default ()) net in
      let rng = Rng.make (seed * 31 + 5) in
      let names = source_names net in
      let ok = ref true in
      for _ = 1 to 20 do
        let assign = Hashtbl.create 16 in
        List.iter (fun s -> Hashtbl.replace assign s (Rng.bool rng)) names;
        let a = eval net assign and b = eval net' assign in
        Hashtbl.iter
          (fun k v ->
            match Hashtbl.find_opt b k with
            | Some v' when v = v' -> ()
            | _ -> ok := false)
          a
      done;
      !ok)

let test_removes_buffers () =
  let b = B.create ~name:"bufchain" () in
  let pi = B.add_input b "a" in
  let b1 = B.add_gate b "b1" ~fn:Cell_kind.Buf ~fanins:[ pi ] () in
  let i1 = B.add_gate b "i1" ~fn:Cell_kind.Inv ~fanins:[ b1 ] () in
  let i2 = B.add_gate b "i2" ~fn:Cell_kind.Inv ~fanins:[ i1 ] () in
  let g = B.add_gate b "g" ~fn:Cell_kind.Nand ~fanins:[ i2; pi ] () in
  let _ = B.add_output b "y" ~fanin:g in
  let net = B.freeze b in
  let net', stats = Resynth.optimize ~lib:(Liberty.default ()) net in
  Alcotest.(check int) "buf removed" 1 stats.Resynth.bufs_removed;
  Alcotest.(check bool) "inv pair removed" true
    (stats.Resynth.inv_pairs_removed >= 1);
  let s = Stats.compute net' in
  (* only the nand survives *)
  Alcotest.(check int) "one gate left" 1 s.Stats.n_gates

let test_decomposes_wide_gate () =
  let b = B.create ~name:"wide" () in
  let pis = List.init 6 (fun i -> B.add_input b (Printf.sprintf "a%d" i)) in
  let g = B.add_gate b "g" ~fn:Cell_kind.Nand ~fanins:pis () in
  let _ = B.add_output b "y" ~fanin:g in
  let net = B.freeze b in
  let net', stats = Resynth.optimize ~lib:(Liberty.default ()) net in
  Alcotest.(check int) "decomposed" 1 stats.Resynth.gates_decomposed;
  Alcotest.(check int) "internals added" 4 stats.Resynth.gates_added;
  (* every gate now has at most 2 pins *)
  Array.iter
    (fun v ->
      Alcotest.(check bool) "narrow" true
        (Array.length (Netlist.fanins net' v) <= 2))
    (Netlist.gates net');
  (* and the function is still a 6-input nand *)
  let assign = Hashtbl.create 8 in
  List.iteri (fun i _ -> Hashtbl.replace assign (Printf.sprintf "a%d" i) true) pis;
  let r = eval net' assign in
  Alcotest.(check bool) "all ones -> 0" true (Hashtbl.find r "y" = false);
  Hashtbl.replace assign "a3" false;
  let r = eval net' assign in
  Alcotest.(check bool) "one zero -> 1" true (Hashtbl.find r "y" = true)

let test_depth_not_catastrophic () =
  (* Huffman decomposition may deepen the netlist in gate count but the
     prepared critical path should stay in the same ballpark. *)
  let spec = Option.get (Spec.find "s1238") in
  let net = Generator.generate spec in
  let net', _ = Resynth.optimize ~lib:(Liberty.default ()) net in
  let p = Suite.prepare net and p' = Suite.prepare net' in
  Alcotest.(check bool)
    (Printf.sprintf "P %.3f vs %.3f" p.Suite.p p'.Suite.p)
    true
    (p'.Suite.p < 1.35 *. p.Suite.p)

let test_retiming_still_clean_after_resynth () =
  let spec = Option.get (Spec.find "s1196") in
  let net = Generator.generate spec in
  let net', _ = Resynth.optimize ~lib:(Liberty.default ()) net in
  let p = Suite.prepare net' in
  match
    Rar_retime.Stage.make ~lib:p.Suite.lib ~clocking:p.Suite.clocking
      p.Suite.cc
  with
  | Error e -> Alcotest.fail (Rar_retime.Error.to_string e)
  | Ok st -> (
    match Rar_engine.run (Rar_engine.config ~c:1.0 Rar_engine.Grar) st with
    | Error e -> Alcotest.fail (Rar_retime.Error.to_string e)
    | Ok r ->
      Alcotest.(check (list int)) "no violations" []
        r.Rar_engine.outcome.Rar_retime.Outcome.violations)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_equivalent;
    Alcotest.test_case "removes buffers and inverter pairs" `Quick
      test_removes_buffers;
    Alcotest.test_case "decomposes wide gates" `Quick test_decomposes_wide_gate;
    Alcotest.test_case "depth stays bounded" `Quick test_depth_not_catastrophic;
    Alcotest.test_case "retiming clean after resynth" `Quick
      test_retiming_still_clean_after_resynth;
  ]
