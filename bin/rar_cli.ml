(* rar — command-line driver for the resilient-retiming reproduction.

   Subcommands:
     rar table <n>     regenerate a paper table (1-9)
     rar all           regenerate every table
     rar info          benchmark and clocking overview
     rar run           run one engine on one circuit, verbosely
     rar bench         run the engines on a user ".bench" netlist
     rar dot           export a benchmark stage as Graphviz *)

open Cmdliner

module Report = Rar_report.Report
module Row = Rar_report.Row
module T = Rar_report.Text_table
module Engine = Rar_engine
module Suite = Rar_circuits.Suite
module Spec = Rar_circuits.Spec
module Stage = Rar_retime.Stage
module Error = Rar_retime.Error
module Outcome = Rar_retime.Outcome
module Clocking = Rar_sta.Clocking
module Sta = Rar_sta.Sta
module Netlist = Rar_netlist.Netlist
module Bench_io = Rar_netlist.Bench_io
module Stats = Rar_netlist.Stats
module Dot = Rar_netlist.Dot
module Transform = Rar_netlist.Transform
module Json = Rar_util.Json

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

let verbose_arg =
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Enable debug logging.")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Worker domains for parallel evaluation (default: $(b,RAR_JOBS) \
           or the machine's core count minus one; 1 = fully sequential).")

(* Where the rar-trace/1 file goes. Exported via [at_exit] so a single
   arming point covers every subcommand, including ones that fail with
   an error after doing real work. *)
let trace_sink : string option ref = ref None

let () = at_exit (fun () -> Option.iter Rar_obs.Trace.export_file !trace_sink)

(* SIGINT/SIGTERM raise a cooperative cancel through [Deadline]
   instead of killing the process mid-solve: the engine's check sites
   notice the request, the run unwinds as a timeout-class error, and
   the [at_exit] trace export (plus any --metrics output the command
   prints on the error path) is flushed rather than truncated. A
   second signal while a cancel is already pending force-exits with
   the conventional 128+SIGINT status — still through [at_exit]. *)
let install_cancel_handlers () =
  Rar_util.Deadline.arm_cancel ();
  let handle name =
    Sys.Signal_handle
      (fun _ ->
        if Rar_util.Deadline.cancel_pending () <> None then exit 130
        else Rar_util.Deadline.request_cancel ~reason:name)
  in
  (try Sys.set_signal Sys.sigint (handle "sigint")
   with Invalid_argument _ | Sys_error _ -> ());
  try Sys.set_signal Sys.sigterm (handle "sigterm")
  with Invalid_argument _ | Sys_error _ -> ()

(* Shared [--verbose]/[--jobs] preamble: every evaluation-heavy
   command starts with [const setup $ verbose_arg $ jobs_arg].
   [RAR_TRACE=FILE] arms tracing for any subcommand; the [run]
   subcommand's [--trace] flag takes precedence over it. *)
let setup verbose jobs =
  setup_logs verbose;
  install_cancel_handlers ();
  (match Sys.getenv_opt "RAR_TRACE" with
  | Some path when path <> "" && !trace_sink = None ->
    trace_sink := Some path;
    Rar_obs.Trace.arm ()
  | Some _ | None -> ());
  Option.iter Rar_util.Pool.set_jobs jobs

let circuits_arg =
  Arg.(
    value
    & opt (some (list string)) None
    & info [ "circuits" ] ~docv:"NAMES"
        ~doc:
          "Comma-separated benchmark names (default: the full Table I \
           suite). Available: $(b,s1196) .. $(b,s38584), $(b,plasma).")

let sim_cycles_arg =
  Arg.(
    value & opt int 300
    & info [ "sim-cycles" ] ~docv:"N"
        ~doc:"Random vector pairs per error-rate measurement (Table VIII).")

(* Shared engine options, built from the registry so a new engine is
   immediately reachable from every subcommand. *)
let approach_conv =
  Arg.enum (List.map (fun s -> (Engine.name s, s)) Engine.all)

let approach_arg =
  Arg.(
    value & opt approach_conv Engine.Grar
    & info [ "approach"; "a" ] ~docv:"APPROACH"
        ~doc:
          (Printf.sprintf "One of %s."
             (String.concat ", "
                (List.map (fun s -> "$(b," ^ Engine.name s ^ ")") Engine.all))))

let model_conv =
  Arg.enum
    (List.map
       (fun m -> (Engine.model_name m, m))
       Sta.[ Path_based; Gate_based ])

let model_arg =
  Arg.(
    value & opt model_conv Sta.Path_based
    & info [ "model" ] ~docv:"MODEL"
        ~doc:"STA delay model: $(b,path) (default) or $(b,gate).")

let format_conv =
  Arg.enum
    [ ("text", Report.Text); ("csv", Report.Csv); ("json", Report.Json) ]

let format_arg =
  Arg.(
    value & opt format_conv Report.Text
    & info [ "format"; "f" ] ~docv:"FORMAT"
        ~doc:"Output format: $(b,text) (default), $(b,csv) or $(b,json).")

let c_arg =
  Arg.(
    value
    & opt float (Engine.config Engine.Grar).Engine.c
    & info [ "c" ] ~docv:"C" ~doc:"EDL area overhead factor (0.5 .. 2).")

let deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline" ] ~docv:"SECONDS"
        ~doc:
          "Wall-clock budget for the solve; when exceeded the run aborts \
           cleanly with a timeout error instead of running to completion.")

(* Same names the serve protocol accepts, so a request and a command
   line select solvers identically; [auto] (the default) pins nothing. *)
let solver_conv =
  let parse s = Result.map_error (fun e -> `Msg e) (Engine.solver_of_name s) in
  let print ppf e = Format.pp_print_string ppf (Engine.solver_name e) in
  Arg.conv (parse, print)

let solver_arg =
  Arg.(
    value & opt solver_conv None
    & info [ "solver" ] ~docv:"SOLVER"
        ~doc:
          "LP solver: $(b,auto) (default; the min-cut closure engine \
           whenever the LP confines every retiming value to {-1, 0}, as \
           every retiming LP here does, else network simplex), $(b,ns) \
           (network simplex, the paper's solver and the reference), \
           $(b,ssp) or $(b,closure).")

let make_deadline =
  Option.map (fun budget_s -> Rar_util.Deadline.make ~budget_s)

let ctx ?solver names sim_cycles = Report.create ?names ~sim_cycles ?solver ()

(* The positional CIRCUIT argument: wrap it in [Arg.required], or in
   [Arg.value] where a flag can stand in for it. *)
let circuit_arg ?(doc = "Benchmark name.") () =
  Arg.(pos 0 (some string) None & info [] ~docv:"CIRCUIT" ~doc)

(* [CIRCUIT | --bench FILE]: a suite benchmark, or a ".bench" netlist
   parsed from FILE; paired with its name or path for messages. *)
type circuit = Suite_circuit of Suite.prepared | Bench_file of Netlist.t

let load_circuit name bench =
  match (bench, name) with
  | Some file, _ -> (
    match Bench_io.parse_file_diag file with
    | Error d -> Error (Rar_util.Diag.to_string d)
    | Ok net -> Ok (file, Bench_file net))
  | None, Some name ->
    Result.map (fun p -> (name, Suite_circuit p)) (Suite.load name)
  | None, None -> Error "give a CIRCUIT name or --bench FILE"

let write_file path text =
  let oc = open_out path in
  output_string oc text;
  close_out oc

(* [--out FILE] or, without it, stdout. *)
let write_out out text =
  match out with
  | Some path -> write_file path text
  | None -> print_string text

(* --- rar table ----------------------------------------------------- *)

let table_cmd =
  let number =
    Arg.(
      required
      & pos 0 (some int) None
      & info [] ~docv:"N" ~doc:"Table number (1-9), as in the paper's §VI.")
  in
  let run verbose jobs names sim_cycles format n =
    setup verbose jobs;
    let t = ctx names sim_cycles in
    match Report.table t ~format n with
    | Ok s ->
      if format = Report.Text then begin
        print_endline (Report.title n);
        print_newline ()
      end;
      print_string s;
      `Ok ()
    | Error e -> `Error (false, e)
  in
  Cmd.v
    (Cmd.info "table" ~doc:"Regenerate one of the paper's tables.")
    Term.(
      ret
        (const run $ verbose_arg $ jobs_arg $ circuits_arg $ sim_cycles_arg
        $ format_arg $ number))

(* --- rar all ------------------------------------------------------- *)

let all_cmd =
  let out =
    Arg.(
      value & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Also write the report to FILE.")
  in
  let run verbose jobs names sim_cycles format solver out =
    setup verbose jobs;
    let t = ctx ?solver names sim_cycles in
    let tables = Report.all_tables ~format t in
    let text =
      match format with
      | Report.Json ->
        (* every table body is a JSON object; wrap them in an array *)
        "[" ^ String.concat ",\n" (List.map (fun (_, _, b) -> b) tables)
        ^ "]\n"
      | Report.Text | Report.Csv ->
        String.concat ""
          (List.map
             (fun (_, title, body) -> title ^ "\n\n" ^ body ^ "\n")
             tables)
    in
    print_string text;
    Option.iter (fun path -> write_file path text) out;
    `Ok ()
  in
  Cmd.v
    (Cmd.info "all" ~doc:"Regenerate every table.")
    Term.(
      ret
        (const run $ verbose_arg $ jobs_arg $ circuits_arg $ sim_cycles_arg
        $ format_arg $ solver_arg $ out))

(* --- rar info ------------------------------------------------------ *)

let info_cmd =
  let name_arg =
    Arg.value (circuit_arg ~doc:"Benchmark to describe in detail." ())
  in
  let run verbose jobs name =
    setup verbose jobs;
    match name with
    | None ->
      Printf.printf "Benchmarks: %s\n" (String.concat ", " Spec.names);
      Printf.printf "Approaches:\n";
      List.iter
        (fun s -> Printf.printf "  %-8s %s\n" (Engine.name s) (Engine.describe s))
        Engine.all;
      `Ok ()
    | Some name -> (
      match Suite.load name with
      | Error e -> `Error (false, e)
      | Ok p ->
        Format.printf "%a@." Rar_netlist.Netlist.pp_summary p.Suite.flop_netlist;
        Format.printf "%a@." Stats.pp (Stats.compute p.Suite.flop_netlist);
        Format.printf "clocking: %a@." Clocking.pp p.Suite.clocking;
        Format.printf "%a@." Clocking.pp_diagram p.Suite.clocking;
        Printf.printf "NCE (initial latch design): %d\n" p.Suite.nce;
        (match Engine.stage_of p with
        | Ok st -> Format.printf "%a@." Stage.pp_summary st
        | Error e -> Printf.printf "stage: %s\n" (Error.to_string e));
        `Ok ())
  in
  Cmd.v
    (Cmd.info "info" ~doc:"Describe a benchmark (or list them all).")
    Term.(ret (const run $ verbose_arg $ jobs_arg $ name_arg))

(* --- rar run ------------------------------------------------------- *)

let pp_outcome name approach c (o : Outcome.t) runtime =
  Printf.printf
    "%s %s c=%.2f: slaves=%d masters=%d edl=%d seq_area=%.2f comb_area=%.2f \
     total=%.2f runtime=%.2fs\n"
    name approach c o.Outcome.n_slaves o.Outcome.n_masters
    (Outcome.ed_count o) o.Outcome.seq_area o.Outcome.comb_area
    o.Outcome.total_area runtime

let run_cmd =
  let name_arg = Arg.required (circuit_arg ()) in
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record a structured execution trace (engine, solver, STA and \
             kernel spans) and write it to FILE as Chrome trace-event JSON \
             ($(b,rar-trace/1)) — loadable in chrome://tracing or Perfetto. \
             Overrides $(b,RAR_TRACE).")
  in
  let metrics_arg =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:
            "Collect solver/kernel counters (network-simplex pivots, \
             max-flow phases and augmentations, SPFA relaxations, SSP \
             augmentations, STA pin relaxations, W/D memo \
             hits, solver fallbacks) and pool gauges; with \
             $(b,--format json) they are embedded as a $(b,metrics) object \
             in the rar-run/1 document, otherwise printed after the \
             summary line.")
  in
  let run verbose jobs name approach model format c solver deadline trace
      metrics =
    setup verbose jobs;
    (match trace with
    | Some path ->
      trace_sink := Some path;
      Rar_obs.Trace.clear ();
      Rar_obs.Trace.arm ()
    | None -> ());
    if metrics then begin
      Rar_obs.Metrics.reset ();
      Rar_obs.Metrics.arm ()
    end;
    let cfg = Engine.config ~model ?solver ~c approach in
    match Engine.load_and_run ?deadline:(make_deadline deadline) cfg name with
    | Error err -> `Error (false, Error.to_string err)
    | Ok r ->
      let metrics_json =
        if metrics then Some (Rar_obs.Metrics.snapshot_json ()) else None
      in
      (match format with
      | Report.Json ->
        print_endline
          (Json.to_string
             (Engine.result_json ~circuit:name ?metrics:metrics_json cfg r))
      | Report.Text | Report.Csv ->
        pp_outcome name (Engine.label approach) c r.Engine.outcome
          r.Engine.wall_s;
        if metrics then begin
          let counters, gauges = Rar_obs.Metrics.snapshot () in
          List.iter
            (fun (k, v) -> Printf.printf "  counter %-20s %d\n" k v)
            counters;
          List.iter
            (fun (k, v) -> Printf.printf "  gauge   %-20s %d\n" k v)
            gauges
        end);
      `Ok ()
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one retiming engine on one benchmark.")
    Term.(
      ret
        (const run $ verbose_arg $ jobs_arg $ name_arg $ approach_arg
        $ model_arg $ format_arg $ c_arg $ solver_arg $ deadline_arg
        $ trace_arg $ metrics_arg))

(* --- rar bench ----------------------------------------------------- *)

let bench_cmd =
  let file =
    Arg.(
      required & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"ISCAS89 '.bench' netlist.")
  in
  let lib_arg =
    Arg.(
      value & opt (some file) None
      & info [ "lib" ] ~docv:"LIBFILE"
          ~doc:"Liberty (.lib) cell library to use instead of the built-in.")
  in
  let run verbose jobs file c format solver libfile =
    setup verbose jobs;
    let lib =
      match libfile with
      | None -> Ok None
      | Some path ->
        Result.map Option.some (Rar_liberty.Liberty_io.parse_file_diag path)
    in
    match lib with
    | Error d -> `Error (false, Rar_util.Diag.to_string d)
    | Ok lib -> (
      match Bench_io.parse_file_diag file with
      | Error d -> `Error (false, Rar_util.Diag.to_string d)
      | Ok net ->
        let p = Suite.prepare ?lib net in
        if format <> Report.Json then
          Printf.printf "%s: P=%.3f ns, %d flops, NCE=%d, flop area=%.2f\n"
            (Netlist.name net) p.Suite.p p.Suite.n_flops p.Suite.nce
            p.Suite.flop_area;
        let stage = Engine.stage_of p in
        let results =
          List.map
            (fun spec ->
              let cfg = Engine.config ?solver ~c spec in
              (spec, cfg, Result.bind stage (Engine.run cfg)))
            Engine.tabulated
        in
        if format = Report.Json then begin
          let entries =
            List.map
              (fun (spec, cfg, res) ->
                match res with
                | Ok r -> Engine.result_json ~circuit:(Netlist.name net) cfg r
                | Error err ->
                  Json.Obj
                    [
                      ("approach", Json.String (Engine.name spec));
                      ("error", Json.String (Error.to_string err));
                    ])
              results
          in
          print_endline (Json.to_string (Json.List entries))
        end
        else
          List.iter
            (fun (spec, _, res) ->
              match res with
              | Ok r ->
                pp_outcome file (Engine.label spec) c r.Engine.outcome
                  r.Engine.wall_s
              | Error err ->
                Printf.printf "%s: %s\n" (Engine.name spec)
                  (Error.to_string err))
            results;
        `Ok ())
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:"Run the tabulated engines on a '.bench' netlist file.")
    Term.(
      ret
        (const run $ verbose_arg $ jobs_arg $ file $ c_arg $ format_arg
        $ solver_arg $ lib_arg))

(* --- rar dot ------------------------------------------------------- *)

let dot_cmd =
  let name_arg = Arg.required (circuit_arg ()) in
  let out =
    Arg.(
      required & pos 1 (some string) None
      & info [] ~docv:"FILE" ~doc:"Output .dot path.")
  in
  let run verbose name out =
    setup_logs verbose;
    match Suite.load name with
    | Error e -> `Error (false, e)
    | Ok p ->
      Dot.write_file out p.Suite.cc.Transform.comb;
      Printf.printf "wrote %s\n" out;
      `Ok ()
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Export a benchmark's combinational stage as DOT.")
    Term.(ret (const run $ verbose_arg $ name_arg $ out))

(* --- rar period ---------------------------------------------------- *)

let period_cmd =
  let name_arg = Arg.required (circuit_arg ()) in
  let run verbose jobs name =
    setup verbose jobs;
    match Suite.load name with
    | Error e -> `Error (false, e)
    | Ok p -> (
      Printf.printf "%s: derived P = %.3f ns (critical path at 72%%)\n" name
        p.Suite.p;
      let module P = Engine.Period_search in
      match P.min_feasible ~lib:p.Suite.lib p.Suite.cc with
      | Error e -> `Error (false, Error.to_string e)
      | Ok f -> (
        Printf.printf
          "min feasible P (legal slave retiming exists): %.3f ns (%d \
           iterations)\n"
          f.P.p f.P.iterations;
        match P.min_detection_free ~lib:p.Suite.lib p.Suite.cc with
        | Error e -> `Error (false, Error.to_string e)
        | Ok d ->
          Printf.printf
            "min detection-free P (G-RAR reaches 0 EDL):   %.3f ns (%d \
             iterations)\n"
            d.P.p d.P.iterations;
          Printf.printf
            "headroom bought by error detection: %.1f%%\n"
            (100. *. (d.P.p -. f.P.p) /. d.P.p);
          `Ok ()))
  in
  Cmd.v
    (Cmd.info "period"
       ~doc:
         "Binary-search the minimum feasible and minimum detection-free \
          stage delays (min-period retiming, the paper's other classic \
          objective).")
    Term.(ret (const run $ verbose_arg $ jobs_arg $ name_arg))

(* --- rar trace ------------------------------------------------------ *)

let trace_cmd =
  let name_arg = Arg.required (circuit_arg ()) in
  let out =
    Arg.(
      required & pos 1 (some string) None
      & info [] ~docv:"FILE" ~doc:"Output .vcd path.")
  in
  let cycles =
    Arg.(
      value & opt int 4
      & info [ "cycles" ] ~docv:"N" ~doc:"Random cycles to record.")
  in
  let run verbose jobs name out cycles =
    setup verbose jobs;
    let t = Report.create ~names:[ name ] () in
    try
      let r = Report.run t name ~spec:Engine.Grar ~c:1.0 in
      let design = Report.sim_design r.Engine.stage r.Engine.outcome in
      let vcd = Rar_sim.Vcd.create design in
      let rng = Rar_util.Rng.of_string (name ^ "/trace") in
      let n = Array.length (Netlist.inputs design.Rar_sim.Sim.staged) in
      let vec () = Array.init n (fun _ -> Rar_util.Rng.bool rng) in
      let prev = ref (vec ()) in
      for _ = 1 to cycles do
        let next = vec () in
        ignore (Rar_sim.Vcd.record_cycle vcd ~prev:!prev ~next);
        prev := next
      done;
      Rar_sim.Vcd.write vcd out;
      Printf.printf "wrote %d cycles of the G-RAR-retimed %s to %s\n" cycles
        name out;
      `Ok ()
    with Report.Engine_failed { what; err } ->
      `Error (false, Printf.sprintf "%s: %s" what (Error.to_string err))
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Simulate the G-RAR-retimed benchmark and dump a VCD waveform.")
    Term.(ret (const run $ verbose_arg $ jobs_arg $ name_arg $ out $ cycles))

(* --- rar classic ----------------------------------------------------- *)

let classic_cmd =
  let name_arg =
    Arg.value
      (circuit_arg ~doc:"Benchmark name (omit when $(b,--bench) is given)." ())
  in
  let bench_arg =
    Arg.(
      value & opt (some string) None
      & info [ "bench" ] ~docv:"FILE"
          ~doc:
            "Retime a \".bench\" netlist read from FILE (timed with the \
             built-in library) instead of a suite benchmark.")
  in
  let feas_arg =
    Arg.(
      value & flag
      & info [ "feas" ]
          ~doc:
            "Use the matrix-free FEAS route (binary search over clock-period \
             feasibility passes) instead of the O(V^2) W/D matrices. Same \
             minimum period; required for 10^5-gate-plus netlists.")
  in
  let run verbose name bench feas =
    setup_logs verbose;
    match load_circuit name bench with
    | Error e -> `Error (false, e)
    | Ok (name, circuit) -> (
      let net, lib =
        match circuit with
        | Bench_file net -> (net, Rar_liberty.Liberty.default ())
        | Suite_circuit p -> (p.Suite.flop_netlist, p.Suite.lib)
      in
      try
        let g = Rar_retime.Classic.of_netlist ~host_registers:1 ~lib net in
        let p0 = Rar_retime.Classic.period_of g in
        if feas then
          match Rar_retime.Classic.retime_feas g with
          | Error e -> `Error (false, Error.to_string e)
          | Ok o ->
            Printf.printf
              "%s: original period %.3f ns, FEAS retimed period %.3f ns \
               (%.1f%% faster)\n"
              name p0 o.Rar_retime.Classic.achieved_period
              (100.
              *. (p0 -. o.Rar_retime.Classic.achieved_period)
              /. p0);
            Printf.printf "FEAS retiming: %d -> %d registers\n"
              o.Rar_retime.Classic.registers_before
              o.Rar_retime.Classic.registers_after;
            `Ok ()
        else
          let pmin = Rar_retime.Classic.min_period g in
          Printf.printf
            "%s: original period %.3f ns, minimum retimed period %.3f ns \
             (%.1f%% faster)\n"
            name p0 pmin
            (100. *. (p0 -. pmin) /. p0);
          match Rar_retime.Classic.retime g ~period:pmin with
          | Error e -> `Error (false, Error.to_string e)
          | Ok o ->
            Printf.printf
              "min-area retiming at %.3f ns: %d -> %d registers (achieved \
               %.3f ns)\n"
              pmin o.Rar_retime.Classic.registers_before
              o.Rar_retime.Classic.registers_after
              o.Rar_retime.Classic.achieved_period;
            `Ok ()
      with Invalid_argument e -> `Error (false, e))
  in
  Cmd.v
    (Cmd.info "classic"
       ~doc:
         "Classic Leiserson–Saxe min-period / min-area retiming of the \
          flop-based benchmark (the paper's §II-C background algorithm). \
          With $(b,--feas), the matrix-free million-gate route.")
    Term.(ret (const run $ verbose_arg $ name_arg $ bench_arg $ feas_arg))

(* --- rar eco --------------------------------------------------------- *)

let eco_cmd =
  let name_arg =
    Arg.value
      (circuit_arg ~doc:"Benchmark name (omit when $(b,--bench) is given)." ())
  in
  let bench_arg =
    Arg.(
      value & opt (some string) None
      & info [ "bench" ] ~docv:"FILE"
          ~doc:
            "Run the ECO session on a \".bench\" netlist read from FILE \
             instead of a suite benchmark.")
  in
  let edits_arg =
    Arg.(
      required & opt (some file) None
      & info [ "edits" ] ~docv:"SCRIPT"
          ~doc:
            "Edit script: one edit per line — $(b,resize NODE DRIVE), \
             $(b,rewire NODE PIN DRIVER), $(b,annotate NODE EXTRA), \
             $(b,c VALUE) — with $(b,commit) lines closing a batch; each \
             batch is resolved incrementally and streams one rar-run/1 \
             record.")
  in
  let verify_arg =
    Arg.(
      value & flag
      & info [ "verify-cold" ]
          ~doc:
            "After each incremental resolve, re-run the engine cold on the \
             cumulatively edited netlist and fail unless the results are \
             identical (modulo wall-clock and solver-fallback events).")
  in
  let metrics_arg =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:
            "Embed the cumulative counter/gauge snapshot (including \
             $(b,sta_incremental_pins) and $(b,difflp_cache_hits)) as a \
             $(b,metrics) object in every streamed record.")
  in
  (* Stripped comparison documents for --verify-cold: wall clocks
     always differ and an LP cache hit legitimately drops fallback
     events, so those two fields are outside the identity contract. *)
  let strip = function
    | Json.Obj fields ->
      Json.Obj
        (List.filter
           (fun (k, _) -> k <> "wall_s" && k <> "solver_events")
           fields)
    | j -> j
  in
  let run verbose jobs name bench edits approach model c solver deadline
      metrics verify =
    setup verbose jobs;
    if metrics then begin
      Rar_obs.Metrics.reset ();
      Rar_obs.Metrics.arm ()
    end;
    match load_circuit name bench with
    | Error e -> `Error (false, e)
    | Ok (name, circuit) -> (
      let p =
        match circuit with
        | Bench_file net -> Suite.prepare net
        | Suite_circuit p -> p
      in
      match Transform.Edit.parse_script (In_channel.with_open_text edits In_channel.input_all) with
      | Error e -> `Error (false, e)
      | Ok batches -> (
        let cfg = Engine.config ~model ?solver ~c approach in
        match Engine.stage_of ~model p with
        | Error err -> `Error (false, Error.to_string err)
        | Ok stage0 -> (
          match Engine.open_session cfg stage0 with
          | exception Invalid_argument e -> `Error (false, e)
          | session ->
            let deadline = make_deadline deadline in
            let cold_net = ref (Stage.comb stage0) in
            let cold_annot = ref None in
            let cold_cfg = ref cfg in
            let failure = ref None in
            List.iteri
              (fun i batch ->
                if !failure = None then begin
                  match Engine.resolve ?deadline session batch with
                  | Error err ->
                    (* Stream a structured error record for the failed
                       batch (consumers tailing the rar-run/1 stream see
                       why it ended) and fail the command: the session
                       state is unchanged, later batches would resolve
                       against a netlist missing this batch's edits. *)
                    print_endline
                      (Json.to_string
                         (Json.Obj
                            [ ("schema", Json.String "rar-eco-error/1");
                              ("circuit", Json.String name);
                              ("batch", Json.Int i);
                              ("kind", Json.String (Error.kind err));
                              ("error", Json.String (Error.to_string err)) ]));
                    failure :=
                      Some
                        (Printf.sprintf "batch %d: %s" i (Error.to_string err))
                  | Ok r -> (
                    let cfg_now = Engine.session_config session in
                    let metrics_json =
                      if metrics then Some (Rar_obs.Metrics.snapshot_json ())
                      else None
                    in
                    print_endline
                      (Json.to_string
                         (Engine.result_json ~circuit:name ?metrics:metrics_json
                            cfg_now r));
                    if verify then begin
                      let applied =
                        Transform.Edit.apply ?annot:!cold_annot !cold_net batch
                      in
                      let cfg' =
                        match applied.Transform.Edit.c with
                        | None -> !cold_cfg
                        | Some c -> { !cold_cfg with Engine.c }
                      in
                      match Engine.stage_of ~model ~edits:applied p with
                      | Error err ->
                        failure :=
                          Some
                            (Printf.sprintf "batch %d: cold re-analysis: %s" i
                               (Error.to_string err))
                      | Ok cold_stage -> (
                        match Engine.run ?deadline cfg' cold_stage with
                        | Error err ->
                          failure :=
                            Some
                              (Printf.sprintf "batch %d: cold re-solve: %s" i
                                 (Error.to_string err))
                        | Ok rc ->
                          let a =
                            Json.to_string
                              (strip (Engine.result_json ~circuit:name cfg_now r))
                          in
                          let b =
                            Json.to_string
                              (strip
                                 (Engine.result_json ~circuit:name cfg' rc))
                          in
                          if a <> b then
                            failure :=
                              Some
                                (Printf.sprintf
                                   "batch %d: incremental result diverges \
                                    from the cold re-solve"
                                   i)
                          else begin
                            cold_net := applied.Transform.Edit.net;
                            cold_annot := Some applied.Transform.Edit.annot;
                            cold_cfg := cfg'
                          end)
                    end)
                end)
              batches;
            (match !failure with
            | Some e -> `Error (false, e)
            | None -> `Ok ()))))
  in
  Cmd.v
    (Cmd.info "eco"
       ~doc:
         "Incremental (ECO) retiming: open a session on a benchmark, apply \
          batches of local edits from a script and re-solve each batch \
          incrementally — cone-limited STA, a patched stage analysis and \
          replayed LP solves — streaming one rar-run/1 JSON record per \
          batch. Results are identical to cold re-solves on the edited \
          netlist ($(b,--verify-cold) checks)."
       ~man:
         [ `S Manpage.s_exit_status;
           `P
             "$(tname) exits 0 only when every batch in the script resolved \
              (and, under $(b,--verify-cold), matched its cold re-solve). \
              When a batch fails, a $(b,rar-eco-error/1) JSON record naming \
              the batch and the error kind is streamed to standard output \
              after the successful batches' records, the remaining batches \
              are skipped, and the exit status is non-zero (124, cmdliner's \
              error status) — so $(b,rar eco && deploy) never deploys a \
              partially applied script." ])
    Term.(
      ret
        (const run $ verbose_arg $ jobs_arg $ name_arg $ bench_arg $ edits_arg
        $ approach_arg $ model_arg $ c_arg $ solver_arg $ deadline_arg
        $ metrics_arg $ verify_arg))

(* --- rar serve ------------------------------------------------------- *)

let serve_cmd =
  let socket_arg =
    Arg.(
      value & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Listen on a Unix-domain socket at PATH (one thread per \
             connection). Default: framed stdin/stdout.")
  in
  let metrics_arg =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:
            "Arm the counter/gauge registry so the $(b,metrics) verb (and \
             run requests with $(b,\"metrics\": true)) report solver and \
             cache counters. Per-cache hit/miss totals are reported either \
             way.")
  in
  let run verbose jobs socket metrics =
    setup verbose jobs;
    if metrics then Rar_obs.Metrics.arm ();
    let server = Rar_serve.Server.create () in
    (* Override the default cooperative-cancel handlers: a signal must
       also stop request intake. The handler only flips atomics; the
       interrupted read/accept loop completes the shutdown. *)
    let handle name =
      Sys.Signal_handle
        (fun _ ->
          if Rar_serve.Server.stopping server then exit 130
          else begin
            Rar_util.Deadline.request_cancel ~reason:name;
            Rar_serve.Server.signal_stop server
          end)
    in
    (try Sys.set_signal Sys.sigint (handle "sigint")
     with Invalid_argument _ | Sys_error _ -> ());
    (try Sys.set_signal Sys.sigterm (handle "sigterm")
     with Invalid_argument _ | Sys_error _ -> ());
    (match socket with
    | Some path -> Rar_serve.Server.serve_socket server ~path
    | None -> Rar_serve.Server.serve_stdio server);
    `Ok ()
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Long-running retiming daemon: newline-delimited rar-req/1 JSON \
          requests in, streamed rar-serve/1 responses out. Each request \
          runs on the shared domain pool under its own deadline and heap \
          guard; parsed libraries, prepared circuits, stage analyses and \
          warm engine sessions are cached across requests by content hash. \
          Admin verbs: $(b,ping), $(b,metrics), $(b,shutdown)."
       ~man:
         [ `S Manpage.s_exit_status;
           `P
             "$(tname) exits 0 after a clean drain — $(b,shutdown) verb, \
              end-of-input on stdio, or a first SIGINT/SIGTERM (which also \
              cancels in-flight requests; each still receives a structured \
              $(b,cancelled) error response). A second signal during the \
              drain force-exits with status 130." ])
    Term.(ret (const run $ verbose_arg $ jobs_arg $ socket_arg $ metrics_arg))

(* --- rar convert ----------------------------------------------------- *)

let convert_cmd =
  let name_arg =
    Arg.value
      (circuit_arg
         ~doc:
           "Suite benchmark whose edge-triggered form is converted (omit \
            when $(b,--bench) or $(b,--verilog) is given)."
         ())
  in
  let bench_arg =
    Arg.(
      value & opt (some file) None
      & info [ "bench" ] ~docv:"FILE"
          ~doc:"Convert an edge-triggered ISCAS89 \".bench\" netlist from FILE.")
  in
  let verilog_arg =
    Arg.(
      value & opt (some file) None
      & info [ "verilog" ] ~docv:"FILE"
          ~doc:
            "Convert an edge-triggered structural Verilog netlist (the \
             subset $(b,Verilog_io) writes: primitive gates and dff \
             instances) from FILE.")
  in
  let phases_arg =
    Arg.(
      value & opt int 2
      & info [ "phases" ] ~docv:"N"
          ~doc:
            "Latch scheme: $(b,2) (master/slave two-phase, default) or \
             $(b,3) (adds a phase-3 latch per flop, for the three-phase \
             resiliency clocking).")
  in
  let out_arg =
    Arg.(
      value & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE"
          ~doc:
            "Write the converted netlist to FILE (stdout when omitted, with \
             diagnostics moved to stderr).")
  in
  let emit_conv = Arg.enum [ ("bench", `Bench); ("verilog", `Verilog) ] in
  let emit_arg =
    Arg.(
      value & opt emit_conv `Bench
      & info [ "emit" ] ~docv:"FORMAT"
          ~doc:
            "Output format: $(b,bench) (default; latches as \
             MLATCH/SLATCH, round-trippable) or $(b,verilog).")
  in
  let check_arg =
    Arg.(
      value & opt int 0
      & info [ "check" ] ~docv:"CYCLES"
          ~doc:
            "Prove simulation equivalence of the original and converted \
             netlists over CYCLES seeded random input vectors before \
             emitting; any primary-output mismatch fails the command.")
  in
  let run verbose jobs name bench verilog phases out emit check =
    setup verbose jobs;
    (* With no --out the netlist owns stdout; keep it byte-clean. *)
    let say fmt =
      Printf.ksprintf
        (fun s ->
          if out = None then prerr_endline s else print_endline s)
        fmt
    in
    match Rar_netlist.Convert.phases_of_int phases with
    | Error e -> `Error (false, e)
    | Ok scheme -> (
      let loaded =
        match (verilog, bench, name) with
        | Some _, Some _, _ -> Error "give only one of --bench and --verilog"
        | Some file, None, _ ->
          Result.map_error Rar_util.Diag.to_string
            (Rar_netlist.Verilog_io.parse_file_diag file)
        | None, None, None ->
          Error "give a CIRCUIT name, --bench FILE or --verilog FILE"
        | None, _, _ ->
          Result.map
            (function
              | _, Bench_file net -> net
              | _, Suite_circuit p -> p.Suite.flop_netlist)
            (load_circuit name bench)
      in
      match loaded with
      | Error e -> `Error (false, e)
      | Ok net -> (
        match Rar_netlist.Convert.run ~phases:scheme net with
        | Error e -> `Error (false, e)
        | Ok (converted, stats) -> (
          let checked =
            if check <= 0 then Ok ()
            else
              match
                Rar_sim.Cycle.equivalent ~cycles:check
                  ~seed:(Netlist.name net ^ "/convert-check")
                  net converted
              with
              | Ok n ->
                say "equivalence: %d cycles, outputs identical" n;
                Ok ()
              | Error e -> Error e
          in
          match checked with
          | Error e -> `Error (false, e)
          | Ok () ->
            let text =
              match emit with
              | `Bench -> Bench_io.print converted
              | `Verilog -> Rar_netlist.Verilog_io.print converted
            in
            write_out out text;
            say "converted %s: %s"
              (Netlist.name net)
              (Format.asprintf "%a" Rar_netlist.Convert.pp_stats stats);
            Option.iter (fun path -> say "wrote %s" path) out;
            `Ok ())))
  in
  Cmd.v
    (Cmd.info "convert"
       ~doc:
         "Convert an edge-triggered (flip-flop) design into a retimeable \
          latch-based one: each DFF becomes a master/slave two-phase latch \
          pair (or a three-latch chain with $(b,--phases 3)), \
          combinational structure untouched, output deterministic. \
          $(b,--check) proves input/output equivalence by bounded random \
          simulation. The emitted \".bench\" (MLATCH/SLATCH) feeds every \
          other subcommand; suite names also accept a \".conv\"/\".conv3\" \
          suffix to run the conversion in-process.")
    Term.(
      ret
        (const run $ verbose_arg $ jobs_arg $ name_arg $ bench_arg
        $ verilog_arg $ phases_arg $ out_arg $ emit_arg $ check_arg))

(* --- rar generate ---------------------------------------------------- *)

let generate_cmd =
  let gates_arg =
    Arg.(
      value & opt int 100_000
      & info [ "gates"; "g" ] ~docv:"N" ~doc:"Combinational gate count.")
  in
  let depth_arg =
    Arg.(
      value & opt (some int) None
      & info [ "depth" ] ~docv:"D"
          ~doc:"Target logic depth (default: scales with the gate count).")
  in
  let flops_arg =
    Arg.(
      value & opt (some int) None
      & info [ "flops" ] ~docv:"N"
          ~doc:"Flip-flop count (default: gates/25, at least 16).")
  in
  let pi_arg =
    Arg.(
      value & opt (some int) None
      & info [ "pi" ] ~docv:"N"
          ~doc:"Primary inputs (default: gates/200, at least 8).")
  in
  let po_arg =
    Arg.(
      value & opt (some int) None
      & info [ "po" ] ~docv:"N"
          ~doc:"Primary outputs (default: gates/200, at least 8).")
  in
  let nce_arg =
    Arg.(
      value & opt (some int) None
      & info [ "nce" ] ~docv:"N"
          ~doc:
            "Near-critical endpoints wired to the deepest layers (default: \
             flops/8, at least 4).")
  in
  let seed_arg =
    Arg.(
      value & opt (some string) None
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"RNG stream name (default: derived from the sizes).")
  in
  let bias_arg =
    Arg.(
      value & opt int Rar_circuits.Defaults.src_bias_pct
      & info [ "src-bias" ] ~docv:"PCT"
          ~doc:
            "Percentage of side pins tied straight to sources rather than \
             an earlier layer (the suite uses 55).")
  in
  let pipe_arg =
    Arg.(
      value & opt (some int) None
      & info [ "pipe-depth" ] ~docv:"STAGES"
          ~doc:
            "Generate the pipelined-datapath family instead of the layered \
             DAG: STAGES register banks separated by ripple-carry \
             add/mix stages of $(b,--width) bits (a latency_p-style \
             pipeline-depth knob). Ignores the DAG sizing flags.")
  in
  let width_arg =
    Arg.(
      value & opt int 32
      & info [ "width" ] ~docv:"BITS"
          ~doc:"Datapath bit width for $(b,--pipe-depth).")
  in
  let out_arg =
    Arg.(
      value & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:
            "Write the netlist as ISCAS89 \".bench\" text to FILE (stats \
             only when omitted).")
  in
  let emit net name dt out =
    let st = Stats.compute net in
    Format.printf "%a@." Stats.pp st;
    Printf.printf "generated %s in %.2f s\n" name dt;
    (match out with
    | Some path ->
      Bench_io.write_file path net;
      Printf.printf "wrote %s\n" path
    | None -> ());
    `Ok ()
  in
  let run verbose gates depth flops pi po nce seed bias pipe width out =
    setup_logs verbose;
    match pipe with
    | Some stages ->
      if stages < 1 || stages > 1024 then
        `Error (false, "--pipe-depth must be in 1..1024")
      else if width < 2 then `Error (false, "--width must be at least 2")
      else begin
        let t0 = Unix.gettimeofday () in
        let net =
          Rar_circuits.Generator.pipeline ~width
            ?seed
            ~stages ()
        in
        let dt = Unix.gettimeofday () -. t0 in
        emit net (Rar_netlist.Netlist.name net) dt out
      end
    | None ->
      if gates < 4 then `Error (false, "--gates must be at least 4")
      else begin
        (* Sizing defaults live in Rar_circuits.Defaults — the single
           source the bench scaling specs mirror. *)
        let module D = Rar_circuits.Defaults in
        let flops = Option.value flops ~default:(D.flops ~gates) in
        let pi = Option.value pi ~default:(D.ports ~gates) in
        let po = Option.value po ~default:(D.ports ~gates) in
        let nce = Option.value nce ~default:(D.nce ~flops) in
        let depth =
          match depth with Some d -> max 4 d | None -> D.depth ~gates
        in
        let name = D.name ~gates ~depth in
        let seed = Option.value seed ~default:name in
        let spec =
          {
            Spec.name;
            n_flops = flops;
            n_pi = pi;
            n_po = po;
            n_gates = gates;
            depth;
            nce_target = nce;
            seed;
            src_bias_pct = bias;
          }
        in
        let t0 = Unix.gettimeofday () in
        let net = Rar_circuits.Generator.generate spec in
        let dt = Unix.gettimeofday () -. t0 in
        emit net name dt out
      end
  in
  Cmd.v
    (Cmd.info "generate"
       ~doc:
         "Generate a seeded layered-DAG benchmark netlist of a chosen size \
          (up to millions of gates) and write it as \".bench\" text, for \
          scaling studies with 'rar classic --bench --feas' and 'rar \
          bench'.")
    Term.(
      ret
        (const run $ verbose_arg $ gates_arg $ depth_arg $ flops_arg $ pi_arg
        $ po_arg $ nce_arg $ seed_arg $ bias_arg $ pipe_arg $ width_arg
        $ out_arg))

(* --- rar lib -------------------------------------------------------- *)

let lib_cmd =
  let out =
    Arg.(
      value & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:"Dump the default library as Liberty text to FILE (stdout \
                when omitted).")
  in
  let run verbose out =
    setup_logs verbose;
    let text = Rar_liberty.Liberty_io.print (Rar_liberty.Liberty.default ()) in
    write_out out text;
    Option.iter (Printf.printf "wrote %s\n") out;
    `Ok ()
  in
  Cmd.v
    (Cmd.info "lib"
       ~doc:
         "Dump the built-in standard-cell library in Liberty (.lib) \
          syntax (generic-CMOS subset; re-readable with 'rar bench \
          --lib').")
    Term.(ret (const run $ verbose_arg $ out))

(* --- rar timing ----------------------------------------------------- *)

let timing_cmd =
  let name_arg = Arg.required (circuit_arg ()) in
  let count =
    Arg.(
      value & opt int 3
      & info [ "paths"; "n" ] ~docv:"N" ~doc:"Worst endpoints to report.")
  in
  let run verbose name count =
    setup_logs verbose;
    match Suite.load name with
    | Error e -> `Error (false, e)
    | Ok p ->
      let sta =
        Rar_sta.Sta.analyse p.Suite.lib Rar_sta.Sta.Path_based
          p.Suite.cc.Transform.comb
      in
      let sinks =
        Array.to_list (Rar_netlist.Netlist.outputs p.Suite.cc.Transform.comb)
        |> List.map (fun s -> (Rar_sta.Sta.arrival_at_sink sta s, s))
        |> List.sort (fun (a, _) (b, _) -> compare b a)
      in
      List.iteri
        (fun i (_, s) ->
          if i < count then begin
            print_string
              (Rar_sta.Sta.report_path sta ~clocking:p.Suite.clocking ~sink:s);
            print_newline ()
          end)
        sinks;
      `Ok ()
  in
  Cmd.v
    (Cmd.info "timing"
       ~doc:"Print commercial-style critical-path timing reports.")
    Term.(ret (const run $ verbose_arg $ name_arg $ count))

(* --- rar sweep ------------------------------------------------------ *)

let sweep_cmd =
  let name_arg = Arg.required (circuit_arg ()) in
  let out =
    Arg.(
      value & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Write the output to FILE.")
  in
  let run verbose jobs name format out =
    setup verbose jobs;
    let t = Report.create ~names:[ name ] () in
    try
      let rows =
        List.map
          (fun c ->
            let g = (Report.run t name ~spec:Engine.Grar ~c).Engine.outcome in
            let b = (Report.run t name ~spec:Engine.Base ~c).Engine.outcome in
            Row.Cells
              [ Row.float' c;
                Row.Int g.Outcome.n_slaves;
                Row.Int (Outcome.ed_count g);
                Row.float' g.Outcome.seq_area;
                Row.Int b.Outcome.n_slaves;
                Row.Int (Outcome.ed_count b);
                Row.float' b.Outcome.seq_area;
                Row.Pct
                  (100.
                  *. (b.Outcome.seq_area -. g.Outcome.seq_area)
                  /. b.Outcome.seq_area) ])
          [ 0.25; 0.5; 0.75; 1.0; 1.25; 1.5; 2.0; 2.5; 3.0 ]
      in
      let table =
        {
          Row.number = 0;
          title = Printf.sprintf "%s: G-RAR vs base across c" name;
          columns =
            [ ("c", T.R); ("grar_slaves", T.R); ("grar_edl", T.R);
              ("grar_seq_area", T.R); ("base_slaves", T.R); ("base_edl", T.R);
              ("base_seq_area", T.R); ("saving_pct", T.R) ];
          rows;
        }
      in
      let rendered =
        match format with
        | Report.Text -> Row.render_text table
        | Report.Csv -> Row.render_csv table
        | Report.Json -> Row.render_json table ^ "\n"
      in
      write_out out rendered;
      Option.iter (Printf.printf "wrote %s\n") out;
      `Ok ()
    with Report.Engine_failed { what; err } ->
      `Error (false, Printf.sprintf "%s: %s" what (Error.to_string err))
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Sweep the EDL overhead factor c and emit the G-RAR vs base \
          trade-off as a table, CSV or JSON series.")
    Term.(ret (const run $ verbose_arg $ jobs_arg $ name_arg $ format_arg $ out))

let main =
  Cmd.group
    (Cmd.info "rar" ~version:"1.0"
       ~doc:
         "Retiming of two-phase latch-based resilient circuits — \
          reproduction of Cheng et al. (DAC 2017 / journal extension).")
    [ table_cmd; all_cmd; info_cmd; run_cmd; bench_cmd; dot_cmd; period_cmd;
      trace_cmd; sweep_cmd; timing_cmd; lib_cmd; classic_cmd; convert_cmd;
      generate_cmd; eco_cmd; serve_cmd ]

let () = exit (Cmd.eval main)
