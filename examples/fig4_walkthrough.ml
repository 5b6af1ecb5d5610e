(* The paper's worked example (Fig. 4 / Fig. 5), step by step.

   Run with:  dune exec examples/fig4_walkthrough.exe               *)

module Fig4 = Rar_circuits.Fig4
module Netlist = Rar_netlist.Netlist
module Transform = Rar_netlist.Transform
module Dot = Rar_netlist.Dot
module Stage = Rar_retime.Stage
module Outcome = Rar_retime.Outcome
module Engine = Rar_engine
module Sta = Rar_sta.Sta
module Clocking = Rar_sta.Clocking

let () =
  let cc = Fig4.circuit () in
  let net = cc.Transform.comb in
  Printf.printf "=== Fig. 4: phi1 = gamma1 = phi2 = gamma2 = 2.5 ===\n";
  Printf.printf "period Pi = %.1f, max delay P = %.1f\n\n"
    (Clocking.period Fig4.clocking)
    (Clocking.max_delay Fig4.clocking);
  let stage =
    match Stage.make ~lib:(Fig4.library ()) ~clocking:Fig4.clocking cc with
    | Ok s -> s
    | Error e -> failwith (Rar_retime.Error.to_string e)
  in
  (* Forward and backward delays of the table in Fig. 4. *)
  let o9 = Fig4.node cc "O9" in
  let db = Stage.db_of_sink stage o9 in
  Printf.printf "%-5s %6s %8s %10s  region\n" "gate" "Df(v)" "Db(v,O9)" "";
  List.iter
    (fun n ->
      let v = Fig4.node cc n in
      let dfv = Sta.df (Stage.sta stage) v in
      let dbv = Float.max db.Sta.rise.(v) db.Sta.fall.(v) in
      let region =
        match Stage.region stage v with
        | Stage.Rm -> "Vm (slave must move through)"
        | Stage.Rn -> "Vn (slave cannot move through)"
        | Stage.Rr -> "Vr"
      in
      Printf.printf "%-5s %6.1f %8.1f %10s  %s\n" n dfv dbv "" region)
    [ "I1"; "I2"; "G3"; "G4"; "G5"; "G6"; "G7"; "G8"; "O9" ];
  (* The A(u,v,t) values the paper quotes. *)
  let a u v = Stage.a_value stage ~db ~u:(Fig4.node cc u) ~v:(Fig4.node cc v) in
  Printf.printf "\nA(G6,G7,O9) = %.1f  (paper: 9,  <= Pi: ok after G6)\n" (a "G6" "G7");
  Printf.printf "A(G3,G6,O9) = %.1f  (paper: 12, > Pi: bad before G6)\n" (a "G3" "G6");
  Printf.printf "A(G5,G7,O9) = %.1f  (paper: 7)\n" (a "G5" "G7");
  Printf.printf "A(I2,G5,O9) = %.1f  (paper: 12)\n" (a "I2" "G5");
  (match Stage.classify stage o9 with
  | Stage.Target { cut } ->
    Printf.printf "\ng(O9) = {%s}  (paper: {G5, G6}; G4 joins under the \
                   reconstructed delays)\n"
      (String.concat ", "
         (List.sort compare (List.map (Netlist.node_name net) cut)))
  | _ -> Printf.printf "\nunexpected classification for O9\n");
  (* Cut1 vs Cut2 under the two overhead regimes. *)
  let show tag c =
    List.iter
      (fun (label, spec) ->
        match Engine.run (Engine.config ~c spec) stage with
        | Ok { Engine.outcome = o; _ } ->
          Printf.printf "%s %s: %d slaves + %d EDL -> %.1f area units\n" tag
            label o.Outcome.n_slaves (Outcome.ed_count o) o.Outcome.seq_area
        | Error e -> print_endline (Rar_retime.Error.to_string e))
      [ ("base ", Engine.Base); ("G-RAR", Engine.Grar) ]
  in
  Printf.printf "\n--- c = 2 (the paper's example): Cut2 wins ---\n";
  show "c=2.0" 2.0;
  Printf.printf
    "(paper: Cut1 = 2 slaves + 1 EDL master = 5 units; Cut2 = 3 slaves + 1 \
     plain master = 4 units)\n";
  Printf.printf "\n--- c = 0.5: the EDL is cheap, Cut1 wins ---\n";
  show "c=0.5" 0.5;
  (* Render the retiming graph's circuit for inspection. *)
  let path = Filename.temp_file "fig4" ".dot" in
  Dot.write_file path net;
  Printf.printf "\nDOT rendering of the stage written to %s\n" path
