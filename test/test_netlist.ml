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
  let g1 = B.add_gate b "g1" ~fn:Cell_kind.Inv ~fanins:[| pi |] () in
  let ff = B.add_seq b "ff" ~role:Netlist.Flop ~fanin:g1 in
  let g2 = B.add_gate b "g2" ~fn:Cell_kind.Nand ~fanins:[| pi; ff |] () in
  let _po = B.add_output b "po" ~fanin:g2 in
  B.freeze b

let test_builder_basic () =
  let net = small_seq () in
  Alcotest.(check int) "nodes" 5 (Netlist.node_count net);
  Alcotest.(check int) "inputs" 1 (Array.length (Netlist.inputs net));
  Alcotest.(check int) "outputs" 1 (Array.length (Netlist.outputs net));
  Alcotest.(check int) "gates" 2 (Array.length (Netlist.gates net));
  match Netlist.find net "g2" with
  | None -> Alcotest.fail "find"
  | Some g2 ->
    Alcotest.(check int) "g2 fanins" 2 (Array.length (Netlist.fanins net g2))

let test_comb_cycle_rejected () =
  let b = B.create () in
  let g1 = B.add_gate_deferred b "g1" ~fn:Cell_kind.Inv () in
  let g2 = B.add_gate b "g2" ~fn:Cell_kind.Inv ~fanins:[| g1 |] () in
  B.connect b g1 ~fanins:[| g2 |];
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
  B.connect b g1 ~fanins:[| ff |];
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
  let _ = B.add_gate b "bad" ~fn:Cell_kind.Mux2 ~fanins:[| pi |] () in
  match B.freeze b with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected arity rejection"

let test_cones () =
  let net = small_seq () in
  let id name = Option.get (Netlist.find net name) in
  let cone = Netlist.fanout_cone net (id "g1") in
  Alcotest.(check bool) "g1 in its cone" true cone.(id "g1");
  Alcotest.(check bool) "ff in cone" true cone.(id "ff");
  Alcotest.(check bool) "cone stops at seq" false cone.(id "g2");
  Alcotest.(check bool) "po behind the seq" false cone.(id "po");
  let cone = Netlist.fanout_cone net (id "pi") in
  Alcotest.(check (list bool)) "pi reaches g2 directly, so every node"
    [ true; true; true; true; true ]
    (List.map (fun n -> cone.(id n)) [ "pi"; "g1"; "ff"; "g2"; "po" ])

(* Freeze copies every row into the CSR: an array handed to [add_gate],
   [connect] or [with_fanins] is the caller's again once the netlist is
   frozen, and changing it changes no netlist. *)
let test_freeze_copies_rows () =
  let b = B.create ~name:"rows" () in
  let pi = B.add_input b "pi" and pj = B.add_input b "pj" in
  let row = [| pi; pj |] in
  let g = B.add_gate b "g" ~fn:Cell_kind.Nand ~fanins:row () in
  let h = B.add_gate_deferred b "h" ~fn:Cell_kind.And () in
  let late = [| g; pi |] in
  B.connect b h ~fanins:late;
  let _ = B.add_output b "po" ~fanin:h in
  let net = B.freeze b in
  let before = Netlist.digest net in
  row.(0) <- pj;
  late.(1) <- pj;
  Alcotest.(check string) "builder rows copied" before (Netlist.digest net);
  Alcotest.(check (array int)) "g keeps its row" [| pi; pj |]
    (Netlist.fanins net g);
  let change = [| pj; pj |] in
  let net' = Netlist.with_fanins net [ (g, change) ] in
  let after = Netlist.digest net' in
  change.(1) <- pi;
  Alcotest.(check string) "with_fanins row copied" after (Netlist.digest net');
  Alcotest.(check (array int)) "g rewired" [| pj; pj |] (Netlist.fanins net' g);
  (* a copied-out row is a copy too *)
  (Netlist.fanins net' g).(0) <- pi;
  (Netlist.fanouts net' pj).(0) <- pi;
  Alcotest.(check string) "fanins/fanouts are copies" after
    (Netlist.digest net');
  Alcotest.(check string) "the source netlist is untouched" before
    (Netlist.digest net)

(* [fanins]/[fanouts] are the CSR's rows, on a flop netlist, its
   two-phase split and its combinational stage; each fanout row lists
   the readers of its fanin rows, ascending, once per pin. *)
let test_rows_are_csr () =
  let flop =
    Rar_circuits.Generator.generate
      (Option.get (Rar_circuits.Spec.find "s1196"))
  in
  let two = Convert.split Convert.Two flop in
  List.iter
    (fun net ->
      let c = Netlist.compact net in
      let slice head flat v =
        Array.sub flat head.(v) (head.(v + 1) - head.(v))
      in
      let n = Netlist.node_count net in
      let readers = Array.make n [] in
      for v = n - 1 downto 0 do
        Array.iter (fun u -> readers.(u) <- v :: readers.(u))
          (Netlist.fanins net v)
      done;
      for v = 0 to n - 1 do
        Alcotest.(check (array int)) "fanouts read the fanin rows"
          (Array.of_list (List.sort compare readers.(v)))
          (Netlist.fanouts net v);
        Alcotest.(check (array int)) "fanins"
          (slice c.Netlist.Compact.fanin_head c.Netlist.Compact.fanin v)
          (Netlist.fanins net v);
        Alcotest.(check (array int)) "fanouts"
          (slice c.Netlist.Compact.fanout_head c.Netlist.Compact.fanout v)
          (Netlist.fanouts net v);
        Alcotest.(check int) "fanout_count"
          (Array.length (Netlist.fanouts net v))
          (Netlist.fanout_count net v)
      done)
    [ flop; two; (Transform.extract_comb two).Transform.comb ]

let test_split () =
  let net = Convert.split Convert.Two (small_seq ()) in
  let stats = Stats.compute net in
  Alcotest.(check int) "no flops left" 0 stats.Stats.n_flops;
  Alcotest.(check int) "one master" 1 stats.Stats.n_masters;
  Alcotest.(check int) "one slave" 1 stats.Stats.n_slaves;
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
  Alcotest.(check int) "no seq nodes" 0 (Array.length (Netlist.seqs comb))

let test_apply_retiming_initial_position () =
  let two = Convert.split Convert.Two (small_seq ()) in
  let cc = Transform.extract_comb two in
  let comb = cc.Transform.comb in
  (* Place one slave after every source = the un-retimed design. *)
  let placements = Transform.initial_placements comb in
  Alcotest.(check int) "one slave per source"
    (Array.length (Netlist.inputs comb))
    (List.length placements);
  let staged = Transform.apply_retiming cc placements in
  let stats = Stats.compute staged in
  Alcotest.(check int) "two slaves" 2 stats.Stats.n_slaves;
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

(* [pin_index] allocates its index array and nothing per placement or
   pin. On the small circuit the index sits in the minor heap, so a
   call's minor words are the array's and a few more; on 500- and
   2000-gate designs the index is past the minor heap's largest block
   (the major heap holds it), and a call costs the same few minor words
   on both. *)
let test_pin_index_allocation () =
  let comb flop =
    (Transform.extract_comb (Convert.split Convert.Two flop)).Transform.comb
  in
  let words net =
    let placements = Transform.initial_placements net in
    ignore (Transform.pin_index net placements : int array);
    let before = Gc.minor_words () in
    let index = Transform.pin_index net placements in
    (Gc.minor_words () -. before, Array.length index)
  in
  let w, len = words (comb (small_seq ())) in
  Alcotest.(check bool) "small: the index and a few words" true
    (w <= float_of_int (len + 1) +. 16.);
  let generated gates =
    comb
      (Rar_circuits.Generator.generate
         { (Option.get (Rar_circuits.Spec.find "s1238")) with
           Rar_circuits.Spec.n_gates = gates; depth = 12; seed = "pins" })
  in
  let w_small, _ = words (generated 500) and w_large, len = words (generated 2000) in
  Alcotest.(check bool) "the index is past the minor heap" true (len > 256);
  Alcotest.(check (float 0.)) "no words per placement or pin" w_small w_large;
  Alcotest.(check bool) "a few words per call" true (w_large <= 16.)

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

(* The exact diagnostic (line, column, message) of each malformed text.
   Line errors are recorded in line order, wiring errors in reverse line
   order, undefined OUTPUTs last (line 0), and the last one recorded
   wins; freeze failures (line 0) come only from an otherwise clean
   text. *)
let bench_diagnostics =
  [
    ("unknown directive", "INPUT(a)\nFOO(a)\n", 2, 1, "unknown directive \"FOO\"");
    ("lower-case unknown directive", "INPUT(a)\n  foo ( a )\n", 2, 3,
     "unknown directive \"foo\"");
    ("missing parentheses", "INPUT a\n", 1, 1,
     "expected INPUT(..), OUTPUT(..) or an assignment");
    ("reversed parentheses", "INPUT)a(\n", 1, 1,
     "expected INPUT(..), OUTPUT(..) or an assignment");
    ("assignment without parentheses", "INPUT(a)\nn1 = NOT a\n", 2, 1,
     "right-hand side must be OP(args)");
    ("assignment with reversed parentheses", "INPUT(a)\nn1 = NOT)a(\n", 2, 1,
     "right-hand side must be OP(args)");
    ("equals inside a directive", "INPUT(a=b)\n", 1, 1,
     "right-hand side must be OP(args)");
    ("unknown operator", "INPUT(a)\n  n1 = FROB(a)\n", 2, 3,
     "unknown operator \"FROB\"");
    ("empty operator", "INPUT(a)\nn1 = (a)\n", 2, 1, "unknown operator \"\"");
    ("duplicate input", "INPUT(a)\nINPUT(a)\n", 2, 1, "signal \"a\" defined twice");
    ("duplicate gate", "INPUT(a)\nn1 = NOT(a)\n\tn1 = BUF(a)\n", 3, 2,
     "signal \"n1\" defined twice");
    ("undefined fanin", "INPUT(a)\nn1 = NAND(a, ghost)\n", 2, 1,
     "undefined signal \"ghost\"");
    ("empty fanin in a list", "INPUT(a)\nn1 = AND(a, , a)\n", 2, 1,
     "undefined signal \"\"");
    ("undefined fanins, reverse line order",
     "INPUT(a)\nn1 = NOT(g1)\n n2 = NAND(g2, g3)\n", 2, 1,
     "undefined signal \"g1\"");
    ("undefined OUTPUT", "INPUT(a)\nOUTPUT(zz)\n", 0, 0, "undefined signal \"zz\"");
    ("OUTPUT listed twice", "INPUT(a)\nOUTPUT(a)\nOUTPUT(a)\n", 3, 1,
     "OUTPUT \"a\" listed twice");
    ("wrong gate arity", "INPUT(a)\nn1 = NOT(a, a)\n", 0, 0,
     "Netlist: gate \"n1\": inv cannot take 2 inputs");
    ("wrong DFF arity", "INPUT(a)\nf = DFF(a, a)\n", 0, 0,
     "Netlist: node \"f\": expected 1 fanins, got 2");
    ("empty argument list", "INPUT(a)\nn1 = AND()\n", 0, 0,
     "Netlist: gate \"n1\": and cannot take 0 inputs");
    ("blank argument list", "INPUT(a)\nn1 = AND( \t )\n", 0, 0,
     "Netlist: gate \"n1\": and cannot take 0 inputs");
    ("combinational cycle", "INPUT(a)\nx = AND(a, y)\ny = NOT(x)\nOUTPUT(y)\n",
     0, 0, "Netlist: combinational cycle through \"x\"");
    ("several line errors", "INPUT(a)\nBAR(b)\nn1 = FROB(a)\nINPUT(a)\n", 4, 1,
     "signal \"a\" defined twice");
    ("line and wiring errors",
     "INPUT(a)\nBAR(b)\nn2 = NAND(a, ghost2)\nn3 = NOT(ghost3)\nINPUT(a)\n", 3,
     1, "undefined signal \"ghost2\"");
    ("line, wiring and OUTPUT errors",
     "INPUT(a)\nOUTPUT(nowhere)\nBAR(b)\nn2 = NAND(a, ghost2)\nOUTPUT(gone)\n\
      INPUT(a)\n",
     0, 0, "undefined signal \"gone\"");
    ("text after a directive", "INPUT(a) x\n", 1, 10,
     "unexpected \"x\" after the argument list");
    ("text glued to an argument list",
     "INPUT(a)\nINPUT(b)\nn1 = NAND(a, b)x\n", 3, 16,
     "unexpected \"x\" after the argument list");
    ("unbalanced closing parenthesis",
     "INPUT(a)\nINPUT(b)\nn1 = NAND(a, b))\n", 3, 16,
     "unexpected \")\" after the argument list");
    ("unbalanced opening parenthesis", "INPUT((a)\n", 1, 1,
     "expected INPUT(..), OUTPUT(..) or an assignment");
    ("CRLF column", "INPUT(a)\r\n  FOO(a)\r\n", 2, 3, "unknown directive \"FOO\"");
    ("form feed column", "INPUT(a)\n\012FOO(a)\n", 2, 1,
     "unknown directive \"FOO\"");
  ]

let test_bench_errors () =
  List.iter
    (fun (what, text, line, col, msg) ->
      match Bench_io.parse_diag text with
      | Ok _ -> Alcotest.failf "%s: parsed" what
      | Error d ->
        Alcotest.(check (triple int int string))
          what (line, col, msg)
          (d.Rar_util.Diag.line, d.Rar_util.Diag.col, d.Rar_util.Diag.msg);
        Alcotest.(check (option string)) (what ^ ": no file") None
          d.Rar_util.Diag.file)
    bench_diagnostics;
  match Bench_io.parse_diag ~file:"x.bench" "FOO(a)\n" with
  | Error d ->
    Alcotest.(check string) "file attached" "x.bench:1:1: unknown directive \"FOO\""
      (Rar_util.Diag.to_string d)
  | Ok _ -> Alcotest.fail "FOO parsed"

let canonical_bench =
  "# canonical\n\
   INPUT(a)\n\
   INPUT(b)\n\
   INPUT(s)\n\
   OUTPUT(y)\n\
   OUTPUT(q)\n\
   f = DFF(y)\n\
   m = MLATCH(f)\n\
   l = SLATCH(m)\n\
   n1 = NAND(a, b)\n\
   n2 = INV(n1)\n\
   n3 = BUF(n2)\n\
   n4 = MUX2(a, b, s)\n\
   y = AND(n3, n4, l)\n\
   q = NOR(a, f)\n"

(* Each variant spells [canonical_bench] differently; every one must
   parse to the same netlist, node for node. *)
let bench_variants =
  [
    ( "lower-case keywords and operators",
      "input(a)\nInput(b)\nINPUT(s)\noutput(y)\nOutput(q)\nf = dff(y)\n\
       m = mlatch(f)\nl = Slatch(m)\nn1 = nand(a, b)\nn2 = inv(n1)\n\
       n3 = buf(n2)\nn4 = Mux2(a, b, s)\ny = and(n3, n4, l)\nq = nOR(a, f)\n" );
    ( "buff/not/mux aliases",
      "INPUT(a)\nINPUT(b)\nINPUT(s)\nOUTPUT(y)\nOUTPUT(q)\nf = DFF(y)\n\
       m = MLATCH(f)\nl = SLATCH(m)\nn1 = NAND(a, b)\nn2 = NOT(n1)\n\
       n3 = BUFF(n2)\nn4 = mux(a, b, s)\ny = AND(n3, n4, l)\nq = NOR(a, f)\n" );
    ( "spaces and tabs",
      " INPUT( a )\nINPUT\t(b)\n\tINPUT(s\t)\nOUTPUT ( y )\nOUTPUT(q)  \n\
       f=DFF(y)\nm =MLATCH( f)\nl= SLATCH(m )\nn1 = NAND(a,b)\n\
       n2 = INV (\tn1\t)\nn3\t=\tBUF(n2)\nn4 = MUX2( a ,b,  s )\n\
       y = AND(n3 ,\tn4, l)\nq = NOR(a,f)\n" );
    ( "CRLF line endings",
      String.concat "\r\n" (String.split_on_char '\n' canonical_bench) );
    ( "comments and blank lines",
      "\n# header\nINPUT(a)\n\n   \nINPUT(b)\n\t# indented comment\nINPUT(s)\n\
       OUTPUT(y)\r\n\nOUTPUT(q)\nf = DFF(y)\nm = MLATCH(f)\nl = SLATCH(m)\n\
       n1 = NAND(a, b)\nn2 = INV(n1)\nn3 = BUF(n2)\nn4 = MUX2(a, b, s)\n\
       y = AND(n3, n4, l)\nq = NOR(a, f)\n#" );
    ( "a comment after the closing parenthesis",
      "INPUT(a) # x\nINPUT(b)\nINPUT(s)\nOUTPUT(y)\nOUTPUT(q)\nf = DFF(y)\n\
       m = MLATCH(f)\nl = SLATCH(m)\nn1 = NAND(a, b)# see f(x)\n\
       n2 = INV(n1) # c\nn3 = BUF(n2)\nn4 = MUX2(a, b, s)\n\
       y = AND(n3, n4, l)\t# (\nq = NOR(a, f)" );
  ]

let bench_digest what text =
  match Bench_io.parse_diag text with
  | Ok net -> Netlist.digest net
  | Error d -> Alcotest.failf "%s: %s" what (Rar_util.Diag.to_string d)

let test_bench_variants () =
  let want = bench_digest "canonical" canonical_bench in
  List.iter
    (fun (what, text) ->
      Alcotest.(check string) what want (bench_digest what text))
    bench_variants;
  (* An empty argument list is a blank one: here an input with an
     empty name. *)
  Alcotest.(check string) "empty argument list"
    (bench_digest "INPUT()" "INPUT()\n")
    (bench_digest "INPUT( )" "input( \t )\r\n");
  (* Balanced parentheses inside a name are part of it (an escaped
     Verilog identifier may hold them), and such names print back to
     the same text. *)
  let text = "INPUT((a))\nOUTPUT(g(1))\ng(1) = NOT((a))\n" in
  match Bench_io.parse_diag text with
  | Error d ->
    Alcotest.failf "nested parentheses: %s" (Rar_util.Diag.to_string d)
  | Ok net ->
    Alcotest.(check (option int)) "\"(a)\" is the input"
      (Some (Netlist.inputs net).(0))
      (Netlist.find net "(a)");
    Alcotest.(check string) "printed names parse back"
      (Netlist.digest net)
      (bench_digest "reprinted" (Bench_io.print net))

(* [print] then [parse] rebuilds the same text: every node keeps its
   name, kind and pin order (ids follow the text, OUTPUT nodes become
   "<driver>$po"), so a second trip is a fixpoint. *)
let prop_bench_print_parse =
  let strip_header s =
    match String.index_opt s '\n' with
    | Some i -> String.sub s (i + 1) (String.length s - i - 1)
    | None -> s
  in
  QCheck.Test.make ~name:"bench print/parse round trip" ~count:12
    QCheck.(pair (int_bound 30) (int_bound 2))
    (fun (seed, family) ->
      let spec =
        { Rar_circuits.Spec.name = "rt3"; n_flops = 4 + seed; n_pi = 3;
          n_po = 2; n_gates = 50 + (5 * seed); depth = 6; nce_target = 2;
          seed = Printf.sprintf "rt3-%d" seed; src_bias_pct = 55 }
      in
      let net =
        match family with
        | 0 -> Rar_circuits.Generator.generate spec
        | 1 ->
          Rar_circuits.Generator.pipeline ~stages:(1 + (seed mod 4))
            ~width:(2 + (seed mod 5)) ~seed:spec.Rar_circuits.Spec.seed ()
        | _ ->
          Convert.split
            (if seed mod 2 = 0 then Convert.Two else Convert.Three)
            (Rar_circuits.Generator.generate spec)
      in
      let text = Bench_io.print net in
      match Bench_io.parse_diag text with
      | Error d -> QCheck.Test.fail_report (Rar_util.Diag.to_string d)
      | Ok net2 -> (
        let text2 = Bench_io.print net2 in
        match Bench_io.parse_diag text2 with
        | Error d -> QCheck.Test.fail_report (Rar_util.Diag.to_string d)
        | Ok net3 ->
          Netlist.node_count net2 = Netlist.node_count net
          && strip_header text2 = strip_header text
          && Netlist.digest net3 = Netlist.digest net2))

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
      let placements = Transform.initial_placements comb in
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
      ~fanins:[| pi; pi |] ()
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
    Alcotest.test_case "fanout cone" `Quick test_cones;
    Alcotest.test_case "freeze copies every row" `Quick test_freeze_copies_rows;
    Alcotest.test_case "fanins and fanouts are CSR rows" `Quick
      test_rows_are_csr;
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
    Alcotest.test_case "pin_index allocates only its index" `Quick
      test_pin_index_allocation;
    Alcotest.test_case "bench parse" `Quick test_bench_parse;
    Alcotest.test_case "bench roundtrip" `Quick test_bench_roundtrip;
    Alcotest.test_case "bench errors" `Quick test_bench_errors;
    Alcotest.test_case "bench formatting variants" `Quick test_bench_variants;
    QCheck_alcotest.to_alcotest prop_bench_print_parse;
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
