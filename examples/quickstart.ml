(* Quickstart: retime one benchmark with every engine and compare.

   Run with:  dune exec examples/quickstart.exe [circuit]        *)

module Suite = Rar_circuits.Suite
module Stage = Rar_retime.Stage
module Outcome = Rar_retime.Outcome
module Clocking = Rar_sta.Clocking
module Engine = Rar_engine

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "s1423" in
  let c = 1.0 in
  (* 1. Load a benchmark: generates the flop-based netlist, converts it
     to two-phase master/slave form and derives the §VI-A clocking. *)
  let p =
    match Suite.load name with Ok p -> p | Error e -> failwith e
  in
  Printf.printf "Circuit %s: max stage delay P = %.3f ns\n" name p.Suite.p;
  Format.printf "%a@.@." Clocking.pp_diagram p.Suite.clocking;
  (* 2. Analyse the retiming stage: regions, per-sink classification. *)
  let stage =
    match Engine.stage_of p with
    | Ok s -> s
    | Error e -> failwith (Rar_retime.Error.to_string e)
  in
  Format.printf "%a@.@." Stage.pp_summary stage;
  (* 3. The un-retimed two-phase design (slaves at the master outputs)
     usually violates max delay on near-critical paths — retiming is
     not optional in this flow. *)
  let initial = Outcome.of_initial ~c stage in
  Printf.printf "initial : %d slaves, %d would-be EDL, %d max-delay violations\n"
    initial.Outcome.n_slaves
    (Outcome.ed_count initial)
    (List.length initial.Outcome.violations);
  (* 4. Compare the engines at EDL overhead c = 1. *)
  let show spec =
    match Engine.run (Engine.config ~c spec) stage with
    | Ok r ->
      let o = r.Engine.outcome in
      Printf.printf
        "%-8s: %4d slaves  %4d EDL  seq area %8.2f  total %8.2f  (%.2f s)\n"
        (Engine.name spec) o.Outcome.n_slaves (Outcome.ed_count o)
        o.Outcome.seq_area o.Outcome.total_area r.Engine.wall_s;
      r.Engine.extras
    | Error e ->
      Printf.printf "%s: %s\n" (Engine.name spec)
        (Rar_retime.Error.to_string e);
      Engine.No_extras
  in
  List.iter
    (fun spec -> ignore (show spec))
    Engine.[ Base; Vl Nvl; Vl Evl; Vl Rvl ];
  match show Engine.Grar with
  | Engine.Retiming { modelled_non_ed; _ } ->
    Printf.printf
      "\nG-RAR converted %d retiming-dependent masters to plain latches.\n"
      (List.length modelled_non_ed)
  | Engine.No_extras | Engine.Retype _ | Engine.Moves _ -> ()
