(* Sweep the EDL overhead c and watch G-RAR trade slave latches against
   error-detecting masters; base retiming is overhead-blind, so its
   outcome never changes. This is the design-space view behind Tables
   IV-VI.

   Run with:  dune exec examples/pipeline_explorer.exe [circuit]   *)

module Suite = Rar_circuits.Suite
module Stage = Rar_retime.Stage
module Outcome = Rar_retime.Outcome
module Engine = Rar_engine

let outcome spec ~c stage =
  match Engine.run (Engine.config ~c spec) stage with
  | Ok r -> r.Engine.outcome
  | Error e -> failwith (Rar_retime.Error.to_string e)

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "s5378" in
  let p = match Suite.load name with Ok p -> p | Error e -> failwith e in
  let stage =
    match Engine.stage_of p with
    | Ok s -> s
    | Error e -> failwith (Rar_retime.Error.to_string e)
  in
  Printf.printf "Overhead sweep on %s (P = %.3f ns)\n\n" name p.Suite.p;
  Printf.printf "%6s | %18s | %18s | %8s\n" "c" "G-RAR slaves/EDL"
    "base slaves/EDL" "saving%";
  Printf.printf "%s\n" (String.make 62 '-');
  List.iter
    (fun c ->
      let go = outcome Engine.Grar ~c stage in
      let bo = outcome Engine.Base ~c stage in
      Printf.printf "%6.2f | %9d /%6d | %9d /%6d | %8.2f\n" c
        go.Outcome.n_slaves (Outcome.ed_count go) bo.Outcome.n_slaves
        (Outcome.ed_count bo)
        (100.
        *. (bo.Outcome.seq_area -. go.Outcome.seq_area)
        /. bo.Outcome.seq_area))
    [ 0.25; 0.5; 0.75; 1.0; 1.5; 2.0; 3.0 ];
  Printf.printf
    "\nG-RAR prices every conversion: when pushing a cone's slaves past its \
     g(t) cut\ncosts fewer latch-areas than c, the master loses its EDL; \
     base retiming cannot\nreact to c at all. On some circuits every \
     conversion is free (the saving%%\ncolumn then just scales with c), on \
     others none pays off — the crossover is\ncircuit-specific. The Fig. 4 \
     example sits exactly on it:\n\n";
  let fig4 = Rar_circuits.Fig4.circuit () in
  let lib = Rar_circuits.Fig4.library () in
  let clocking = Rar_circuits.Fig4.clocking in
  let st =
    match Stage.make ~lib ~clocking fig4 with
    | Ok s -> s
    | Error e -> failwith (Rar_retime.Error.to_string e)
  in
  Printf.printf "%6s | %16s\n" "c" "fig4 slaves/EDL";
  List.iter
    (fun c ->
      let o = outcome Engine.Grar ~c st in
      Printf.printf "%6.2f | %9d /%4d   (%s)\n" c o.Outcome.n_slaves
        (Outcome.ed_count o)
        (if Outcome.ed_count o = 0 then "Cut2: EDL bought out"
         else "Cut1: EDL kept"))
    [ 0.5; 1.0; 1.5; 2.0 ]
