(* Error-rate simulation (Table VIII): retime a benchmark, realise the
   slave latches as netlist elements, then drive random vectors through
   an event-driven timing simulation and count resiliency-window hits.

   Run with:  dune exec examples/error_rate_demo.exe [circuit] [cycles] *)

module Suite = Rar_circuits.Suite
module Engine = Rar_engine
module Outcome = Rar_retime.Outcome
module Sim = Rar_sim.Sim

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "s1423" in
  let cycles =
    if Array.length Sys.argv > 2 then int_of_string Sys.argv.(2) else 500
  in
  let p = match Suite.load name with Ok p -> p | Error e -> failwith e in
  let stage =
    match Engine.stage_of p with
    | Ok s -> s
    | Error e -> failwith (Rar_retime.Error.to_string e)
  in
  Printf.printf "%s: %d random vector pairs per design\n\n" name cycles;
  let show tag spec =
    match Engine.run (Engine.config ~c:1.0 spec) stage with
    | Error e -> print_endline (Rar_retime.Error.to_string e)
    | Ok { Engine.stage = stage'; outcome = o; _ } ->
      let d = Rar_report.Report.sim_design stage' o in
      let r = Sim.error_rate ~cycles ~seed:(name ^ "/" ^ tag) d in
      Printf.printf
        "%-6s: error rate %6.2f%%  (%d error cycles, %d flags, %d EDL \
         masters, silent-failure cycles: %d)\n"
        tag r.Sim.error_rate r.Sim.error_cycles r.Sim.error_events
        (Outcome.ed_count o) r.Sim.silent_cycles
  in
  show "base" Engine.Base;
  show "G-RAR" Engine.Grar;
  Printf.printf
    "\nA silent-failure cycle is a non-error-detecting master capturing\n\
     mid-transition. The simulator's worst-pin delays are more pessimistic\n\
     than the per-pin STA that assigns the EDLs, so a few can appear.\n"
