module Netlist = Rar_netlist.Netlist
module Cell_kind = Rar_netlist.Cell_kind
module Transform = Rar_netlist.Transform
module Liberty = Rar_liberty.Liberty
module Clocking = Rar_sta.Clocking
module B = Netlist.Builder

(* Cell delays are selected through (kind, drive) pairs:
   buf/1 = 1.0, buf/3 = 2.0 (G5), buf/4 = 5.0 (G6),
   and/1 = 3.2 (G4), nand/1 = 1.0 (G7), inv/1 = 1.0 (G8). *)
let library () =
  let zero_latch =
    { Liberty.seq_area = 1.; d_to_q = 0.; ck_to_q = 0.; setup = 0.;
      seq_input_cap = 0. }
  in
  let flop =
    { Liberty.seq_area = 2.; d_to_q = 0.; ck_to_q = 0.; setup = 0.;
      seq_input_cap = 0. }
  in
  Liberty.synthetic ~name:"fig4" ~latch:zero_latch ~flop
    ~cells:
      [
        ((Cell_kind.Buf, 1), 1., 1.0);
        ((Cell_kind.Buf, 3), 1., 2.0);
        ((Cell_kind.Buf, 4), 1., 5.0);
        ((Cell_kind.And, 1), 1., 3.2);
        ((Cell_kind.Nand, 1), 1., 1.0);
        ((Cell_kind.Inv, 1), 1., 1.0);
      ]

let clocking = Clocking.v ~phi1:2.5 ~gamma1:2.5 ~phi2:2.5 ~gamma2:2.5

let circuit () =
  let b = B.create ~name:"fig4" () in
  let pi_a = B.add_input b "pi_a" in
  let pi_b = B.add_input b "pi_b" in
  let i1 = B.add_gate b "I1" ~fn:Cell_kind.Buf ~fanins:[| pi_a |] () in
  let i2 = B.add_gate b "I2" ~fn:Cell_kind.Buf ~fanins:[| pi_b |] () in
  let g3 = B.add_gate b "G3" ~fn:Cell_kind.Buf ~fanins:[| i1 |] () in
  let g5 = B.add_gate b "G5" ~fn:Cell_kind.Buf ~drive:3 ~fanins:[| i2 |] () in
  let g4 =
    B.add_gate b "G4" ~fn:Cell_kind.And ~fanins:[| g3; g5; i2 |] ()
  in
  let g6 = B.add_gate b "G6" ~fn:Cell_kind.Buf ~drive:4 ~fanins:[| g3 |] () in
  let g7 = B.add_gate b "G7" ~fn:Cell_kind.Nand ~fanins:[| g6; g5; g4 |] () in
  let g8 = B.add_gate b "G8" ~fn:Cell_kind.Inv ~fanins:[| g7 |] () in
  let _o9 = B.add_output b "O9" ~fanin:g8 in
  let net = B.freeze b in
  (* Already combinational: extract_comb is the identity modulo the
     source/sink bookkeeping. *)
  Transform.extract_comb net

let node cc name =
  match Netlist.find cc.Transform.comb name with
  | Some v -> v
  | None -> raise Not_found
