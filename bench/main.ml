(* Benchmark harness: Bechamel kernels for the measurements
   EXPERIMENTS.md cites (the Table VII LP-engine ablation, Table VIII
   error-rate simulation and the classic-retiming pipeline), followed
   by a sequential-vs-parallel wall-clock comparison and the paired
   instrumentation-overhead ratios (written to BENCH_eval.json so the
   perf trajectory is tracked across PRs; see EXPERIMENTS.md for the
   schema) and the printed rows of each table on a representative
   subset of the suite (set RAR_BENCH_FULL=1 for all twelve circuits;
   EXPERIMENTS.md records a full run).

   Groups:
     table_vii  LP engine ablation: network simplex vs SSP vs closure
     table_viii error-rate simulation
     ablation   classic min-period retiming (the bench-smoke gate's
                kernel on a generated circuit) *)

open Bechamel
open Toolkit

module Report = Rar_report.Report
module Suite = Rar_circuits.Suite
module Rgraph = Rar_retime.Rgraph
module Outcome = Rar_retime.Outcome
module Classic = Rar_retime.Classic
module Sim = Rar_sim.Sim
module Difflp = Rar_flow.Difflp
module Transform = Rar_netlist.Transform
module Engine = Rar_engine

let ok = function
  | Ok v -> v
  | Error e -> failwith (Rar_retime.Error.to_string e)

(* Effective pool size before the harness overrides it with set_jobs:
   what `--jobs` / RAR_JOBS / the core-count default resolve to after
   the host-core clamp, recorded in the host metadata of
   BENCH_eval.json. *)
let jobs_effective = Rar_util.Pool.effective_jobs ()

(* `--jobs 1,2,4` selects the job counts of the scaling.jobs_curve
   sweep (requested sizes; the pool clamps each to the host). *)
let jobs_sweep =
  let rec find = function
    | "--jobs" :: v :: _ -> Some v
    | _ :: rest -> find rest
    | [] -> None
  in
  match find (Array.to_list Sys.argv) with
  | None -> [ 1; 2; 4 ]
  | Some v -> (
    match List.filter_map int_of_string_opt (String.split_on_char ',' v) with
    | [] -> [ 1; 2; 4 ]
    | js -> List.filter (fun j -> j >= 1) js)

(* Representative circuit for the timed kernels: s1423 is the smallest
   benchmark on which every engine behaves non-trivially. *)
let ctx = Report.create ~names:[ "s1423" ] ~sim_cycles:50 ()
let circuit = "s1423"

let prepared = lazy (Report.prepared ctx circuit)
let stage_path = lazy (Report.stage ctx circuit)

let grar_result = lazy (Report.run ctx circuit ~spec:Engine.Grar ~c:1.0)

let sim_design =
  lazy
    (let r = Lazy.force grar_result in
     Report.sim_design r.Engine.stage r.Engine.outcome)

(* Armed-tracing wrapper for the trace_overhead_ratio measurement.
   Buffers are cleared every run so they do not grow across
   iterations. *)
let with_tracing f =
  Rar_obs.Trace.clear ();
  Rar_obs.Trace.arm ();
  Rar_obs.Metrics.arm ();
  Fun.protect
    ~finally:(fun () ->
      Rar_obs.Trace.disarm ();
      Rar_obs.Metrics.disarm ();
      Rar_obs.Trace.clear ();
      Rar_obs.Metrics.reset ())
    f

(* Classic min-period retiming of [graph ()], end to end. *)
let retime_classic ?deadline graph () =
  let g = graph () in
  let pmin = Classic.min_period ?deadline g in
  ignore (ok (Classic.retime ?deadline g ~period:pmin))

let classic_graph () =
  let p = Lazy.force prepared in
  Classic.of_netlist ~host_registers:1 ~lib:p.Suite.lib p.Suite.flop_netlist

(* Wall-time quotient of [armed] over [plain]. The instrumentation
   cost is far below host noise, so the quotient of two independently
   measured Bechamel estimates flakes: clock-speed drift between the
   two measurement windows reads as "overhead". Interleaved paired
   rounds alternate plain and armed runs instead, so drift hits both
   sides equally and cancels out of the quotient. *)
let paired_ratio ?(rounds = 4) ?(runs = 3) ~plain ~armed () =
  let time f =
    let t0 = Rar_util.Clock.now_s () in
    for _ = 1 to runs do
      f ()
    done;
    Rar_util.Clock.now_s () -. t0
  in
  plain ();
  armed ();
  let plain_s = ref 0. and armed_s = ref 0. in
  for _ = 1 to rounds do
    plain_s := !plain_s +. time plain;
    armed_s := !armed_s +. time armed
  done;
  !armed_s /. Float.max 1e-9 !plain_s

(* The "resilience" section of BENCH_eval.json: what an armed deadline
   (strided in-loop checks at full frequency, far enough out never to
   fire) and armed tracing + metrics add to a classic pipeline. Both
   are gated at 1.05x in bench/smoke_floor.json. *)
let resilience_ratios graph =
  let plain = retime_classic graph in
  let deadline () =
    retime_classic
      ~deadline:(Rar_util.Deadline.make ~budget_s:86400.)
      graph ()
  in
  [
    ("deadline_overhead_ratio", paired_ratio ~plain ~armed:deadline ());
    ("trace_overhead_ratio",
      paired_ratio ~plain ~armed:(fun () -> with_tracing plain) ());
  ]

let solve_kernel name engine =
  Test.make ~name (Staged.stage (fun () ->
      let g = Rgraph.build ~edl_overhead:1.0 (Lazy.force stage_path) in
      ignore (ok (Rgraph.solve ~engine g))))

let tests =
  [
    solve_kernel "table_vii/engine_simplex" Difflp.Network_simplex;
    solve_kernel "table_vii/engine_ssp" Difflp.Ssp;
    solve_kernel "table_vii/engine_closure" Difflp.Closure;
    Test.make ~name:"table_viii/sim_50_cycles" (Staged.stage (fun () ->
        ignore (Sim.error_rate ~cycles:50 ~seed:"bench" (Lazy.force sim_design))));
    Test.make ~name:"ablation/classic_retiming"
      (Staged.stage (retime_classic classic_graph));
  ]

(* [~stabilize:false]: Bechamel's default compacts the heap before
   every sample, and after the hundreds of compactions a microsecond
   kernel takes, OCaml 5.1's major GC no longer keeps pace with
   allocation for the rest of the process — the wall-clock sections
   that follow the kernels then grew the heap by ~285 MB per classic
   pipeline run, past 6 GB. *)
let measure_kernels ~banner tests =
  let instance = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 2.0) ~kde:(Some 10)
      ~stabilize:false ()
  in
  Printf.printf "%s\n%!" banner;
  let kernels = ref [] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"g" [ test ]) in
      let ols =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false
             ~predictors:[| Measure.run |])
          instance results
      in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] ->
            kernels := (name, est) :: !kernels;
            Printf.printf "  %-28s %12.0f ns/run\n%!" name est
          | _ -> Printf.printf "  %-28s (no estimate)\n%!" name)
        ols)
    tests;
  List.rev !kernels

let run_benchmarks () =
  measure_kernels
    ~banner:
      (Printf.sprintf "== Bechamel kernels (circuit %s, monotonic clock) =="
         circuit)
    tests

(* ------------------------------------------------------------------ *)
(* BENCH_eval.json: machine-readable perf trajectory                   *)
(* ------------------------------------------------------------------ *)

(* Sequential-vs-parallel wall clock of the two pool-parallel paths:
   stage analysis (per-sink classification fan-out) and Report.all_tables
   (whole-grid precompute). Schema documented in EXPERIMENTS.md. *)

let time_wall f =
  let t0 = Rar_util.Clock.now_s () in
  let r = f () in
  (r, Rar_util.Clock.now_s () -. t0)

let wall_stage_make ~jobs ~names =
  Rar_util.Pool.set_jobs jobs;
  let total = ref 0. in
  List.iter
    (fun name ->
      let p = Report.prepared ctx name in
      let _, dt = time_wall (fun () -> ok (Engine.stage_of p)) in
      total := !total +. dt)
    names;
  !total

let wall_all_tables ~jobs ~names ~sim_cycles =
  Rar_util.Pool.set_jobs jobs;
  let t = Report.create ~names ~sim_cycles () in
  let _, dt = time_wall (fun () -> Report.all_tables t) in
  dt

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Scaling curve: generated 10^5..10^6-gate circuits                   *)
(* ------------------------------------------------------------------ *)

(* Sizing defaults are shared with `rar generate` via
   Rar_circuits.Defaults, so a curve row is reproducible from the CLI
   with the same gate count. *)
let scale_spec ~gates = Rar_circuits.Defaults.scale_spec ~gates

(* Run [f] under armed tracing and metrics; return its result plus the
   summed inclusive wall seconds per span name — the per-phase
   breakdown of each scaling row — and the counter snapshot (pivot and
   pruning effort alongside the wall clock). *)
let span_totals f =
  Rar_obs.Trace.clear ();
  Rar_obs.Trace.arm ();
  Rar_obs.Metrics.reset ();
  Rar_obs.Metrics.arm ();
  let r =
    Fun.protect
      ~finally:(fun () ->
        Rar_obs.Trace.disarm ();
        Rar_obs.Metrics.disarm ())
      f
  in
  let counters, _gauges = Rar_obs.Metrics.snapshot () in
  let evs = Rar_obs.Trace.events () in
  Rar_obs.Trace.clear ();
  let stacks = Hashtbl.create 8 and totals = Hashtbl.create 8 in
  List.iter
    (fun (e : Rar_obs.Trace.event) ->
      let st =
        match Hashtbl.find_opt stacks e.dom with
        | Some s -> s
        | None ->
          let s = ref [] in
          Hashtbl.add stacks e.dom s;
          s
      in
      match e.phase with
      | Rar_obs.Trace.Begin -> st := (e.name, e.ts_s) :: !st
      | Rar_obs.Trace.End -> (
        match !st with
        | (n, t0) :: rest when n = e.name ->
          st := rest;
          Hashtbl.replace totals n
            (e.ts_s -. t0
            +. Option.value ~default:0. (Hashtbl.find_opt totals n))
        | _ -> ()))
    evs;
  ( r,
    List.sort compare (Hashtbl.fold (fun k v a -> (k, v) :: a) totals []),
    counters )

(* The flow-engine effort counters published in every scaling row:
   solver work (max-flow phases and augmentations for the default
   closure solve; pivots and the block-pricing hit rate when network
   simplex runs) and LP-prep pruning. Fixed whitelist so the row shape
   is stable; absent counters emit 0. *)
let scale_counter_keys =
  [
    "maxflow_phases";
    "maxflow_augmentations";
    "netsimplex_pivots";
    "netsimplex_block_hits";
    "netsimplex_cycle_arcs";
    "netsimplex_shift_nodes";
    "endpoints_pruned";
  ]

let counters_json counters =
  String.concat ", "
    (List.map
       (fun k ->
         Printf.sprintf "\"%s\": %d" (json_escape k)
           (Option.value ~default:0 (List.assoc_opt k counters)))
       scale_counter_keys)

let scale_entry ~name ~gates ~path ~phases ~spans ~counters ~stats =
  let kv (k, v) = Printf.sprintf "\"%s\": %.4f" (json_escape k) v in
  Printf.sprintf
    "{ \"circuit\": \"%s\", \"gates\": %d, \"path\": \"%s\", \"phases\": { \
     %s }, \"spans\": { %s }, \"counters\": { %s }%s }"
    (json_escape name) gates (json_escape path)
    (String.concat ", " (List.map kv phases))
    (String.concat ", " (List.map kv spans))
    (counters_json counters)
    (if stats = "" then "" else ", " ^ stats)

(* End-to-end classic min-period retiming through the matrix-free FEAS
   route: generate, build the retiming graph, bisect with FEAS,
   realise the retimed netlist. The only classic path that fits a
   10^6-gate circuit. *)
let scale_classic_feas ~gates =
  let spec = scale_spec ~gates in
  let net, generate_s =
    time_wall (fun () -> Rar_circuits.Generator.generate spec)
  in
  let lib = Rar_liberty.Liberty.default () in
  let (res, spans, counters), retime_s =
    time_wall (fun () ->
        span_totals (fun () ->
            let g = Classic.of_netlist ~host_registers:1 ~lib net in
            (Classic.period_of g, ok (Classic.retime_feas g))))
  in
  let p0, o = res in
  Printf.printf
    "  classic_feas %9d gates: gen %6.2fs, retime %6.2fs, %.3f -> %.3f ns, \
     %d -> %d regs\n%!"
    gates generate_s retime_s p0 o.Classic.achieved_period
    o.Classic.registers_before o.Classic.registers_after;
  scale_entry ~name:spec.Rar_circuits.Spec.name ~gates ~path:"classic_feas"
    ~phases:[ ("generate_s", generate_s); ("retime_s", retime_s) ]
    ~spans ~counters
    ~stats:
      (Printf.sprintf
         "\"period_before_ns\": %.4f, \"period_after_ns\": %.4f, \
          \"registers_before\": %d, \"registers_after\": %d"
         p0 o.Classic.achieved_period o.Classic.registers_before
         o.Classic.registers_after)

(* End-to-end G-RAR (prepare + stage + engine) on a generated circuit:
   the paper pipeline's cost at scale, with the sta/wd/solver span
   split. *)
let scale_grar ~gates =
  let spec = scale_spec ~gates in
  let net, generate_s =
    time_wall (fun () -> Rar_circuits.Generator.generate spec)
  in
  let (res, spans, counters), run_s =
    time_wall (fun () ->
        span_totals (fun () ->
            let p = Suite.prepare net in
            let cfg = Engine.config ~c:1.0 Engine.Grar in
            (p, ok (Engine.run cfg (ok (Engine.stage_of p))))))
  in
  let p, r = res in
  let o = r.Engine.outcome in
  Printf.printf
    "  grar         %9d gates: gen %6.2fs, run    %6.2fs, P %.3f ns, %d \
     slaves, %d EDLs\n%!"
    gates generate_s run_s p.Suite.p o.Outcome.n_slaves (Outcome.ed_count o);
  scale_entry ~name:spec.Rar_circuits.Spec.name ~gates ~path:"grar"
    ~phases:[ ("generate_s", generate_s); ("run_s", run_s) ]
    ~spans ~counters
    ~stats:
      (Printf.sprintf
         "\"p_ns\": %.4f, \"n_slaves\": %d, \"edl_count\": %d, \
          \"total_area\": %.2f"
         p.Suite.p o.Outcome.n_slaves (Outcome.ed_count o)
         o.Outcome.total_area)

(* G-RAR stages every endpoint cone through STA and solves the LP by
   one max-flow closure; stage classification dominates and grows
   superlinearly (O(sinks x n)), so 10^6 gates stays FEAS-only. The
   curve keeps G-RAR points at the tractable sizes and says so when
   it skips one, rather than silently thinning the curve. *)
let grar_max_gates = 100_000

(* Every scaling row runs in a child process of this executable
   ([--scale-row PATH GATES]), so each gets a fresh heap that is handed
   back when the row ends: a 10^5-gate G-RAR row peaks at ~1.2 GB, and
   OCaml 5.1's [Gc.compact] cannot return a fragmented heap (compaction
   only came back in 5.2), so rows sharing the bench's heap would carry
   their high-water marks into every later section. The child prints
   its progress line, then the row's JSON entry as its last line. *)
let scale_row ~path ~gates =
  match path with
  | "classic_feas" -> scale_classic_feas ~gates
  | "grar" -> scale_grar ~gates
  | _ -> invalid_arg ("unknown scaling path " ^ path)

let scale_row_in_child ~path ~gates =
  let exe = Sys.executable_name in
  let ic =
    Unix.open_process_args_in exe
      [| exe; "--scale-row"; path; string_of_int gates |]
  in
  let lines =
    In_channel.input_all ic |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith (Printf.sprintf "scaling row %s/%d failed" path gates));
  match List.rev lines with
  | entry :: progress ->
    List.iter print_endline (List.rev progress);
    entry
  | [] ->
    failwith (Printf.sprintf "scaling row %s/%d printed nothing" path gates)

let run_scaling () =
  Printf.printf "\n== Scaling curve (generated circuits) ==\n%!";
  let sizes =
    match Sys.getenv_opt "RAR_BENCH_SCALE" with
    | Some s -> (
      match List.filter_map int_of_string_opt (String.split_on_char ',' s) with
      | [] -> [ 25_000; 100_000; 1_000_000 ]
      | ss -> ss)
    | None -> [ 25_000; 100_000; 1_000_000 ]
  in
  List.concat_map
    (fun gates ->
      let f = scale_row_in_child ~path:"classic_feas" ~gates in
      if gates <= grar_max_gates then
        [ f; scale_row_in_child ~path:"grar" ~gates ]
      else begin
        Printf.printf
          "  grar         %9d gates: skipped (> %d-gate G-RAR bound)\n%!"
          gates grar_max_gates;
        [ f ]
      end)
    sizes

let run_jobs_curve ~table_names ~sim_cycles =
  Printf.printf "\n== Jobs sweep: all_tables at --jobs %s ==\n%!"
    (String.concat "," (List.map string_of_int jobs_sweep));
  let base = ref None in
  let entries =
    List.map
      (fun j ->
        let dt = wall_all_tables ~jobs:j ~names:table_names ~sim_cycles in
        let eff = Rar_util.Pool.effective_jobs () in
        if !base = None then base := Some dt;
        let speedup = Option.get !base /. Float.max 1e-9 dt in
        Printf.printf "  jobs=%d (effective %d): %.3fs (%.2fx vs first)\n%!"
          j eff dt speedup;
        Printf.sprintf
          "{ \"jobs_requested\": %d, \"jobs_effective\": %d, \
           \"all_tables_s\": %.4f, \"speedup_vs_first\": %.2f }"
          j eff dt speedup)
      jobs_sweep
  in
  Rar_util.Pool.set_jobs 1;
  entries

(* ------------------------------------------------------------------ *)
(* ECO: cold solve vs session edit-and-resolve                         *)
(* ------------------------------------------------------------------ *)

(* [k] gate names spread across the deepest two-fifths of the node-id
   range of a generated circuit (the generator emits gates in layer
   order, so late ids have small forward cones): late-fix targets,
   and the regime where an annotation rarely flips a downstream sink
   classification. *)
let eco_edit_targets net k =
  let module N = Rar_netlist.Netlist in
  let gates = ref [] in
  for i = N.node_count net - 1 downto 0 do
    match N.kind net i with
    | N.Gate _ -> gates := i :: !gates
    | N.Input | N.Output | N.Seq _ -> ()
  done;
  let gates = Array.of_list !gates in
  let m = Array.length gates in
  let base = 3 * m / 5 in
  List.init k (fun j ->
      N.node_name net gates.(base + ((j + 1) * (m - base) / (k + 2))))

(* ECO circuit size of the full run and the ECO smoke; the eco-smoke
   gate requires it to equal eco_gates in bench/smoke_floor.json. *)
let eco_gates = 25_000

type eco_stats = {
  eco_circuit : string;
  eco_gates : int;
  eco_stage_s : float;  (* cold stage analysis *)
  eco_warm_s : float;  (* first (cache-priming) resolve *)
  eco_resolve_s : float list;  (* steady-state edit batches *)
  eco_cold_s : float;  (* cold re-solve of the edited netlist *)
  eco_identical : bool;  (* session result = cold result *)
  eco_counters : (string * int) list;  (* solver-effort counters *)
}

(* Cold-open a G-RAR run on a generated [gates]-gate circuit, resolve
   [n_batches] small delay-annotation batches through an engine
   session, then cold re-solve the cumulatively edited netlist and
   check the session's last result against it. The G-RAR LP is built
   from the stage's discrete data only (regions, sink classes, cut
   sets, fanout groups), so annotations too small to flip a
   classification leave the LP byte-identical and steady-state
   resolves replay the cached solution: the measured speedup is
   cone-limited re-analysis plus a solve-cache hit versus the full
   cold stage + solve pipeline. The first resolve (empty batch) pays
   the one-time cache-priming solve and is reported separately. *)
let eco_measure ~gates ~n_batches ~edits_per_batch =
  Rar_obs.Metrics.reset ();
  Rar_obs.Metrics.arm ();
  let spec = scale_spec ~gates in
  let net = Rar_circuits.Generator.generate spec in
  let p = Suite.prepare net in
  let cfg = Engine.config ~c:1.0 Engine.Grar in
  let stage0, stage_s = time_wall (fun () -> ok (Engine.stage_of p)) in
  let comb = p.Suite.cc.Transform.comb in
  let session = Engine.open_session cfg stage0 in
  let r0, warm_s = time_wall (fun () -> ok (Engine.resolve session [])) in
  let names = eco_edit_targets comb (n_batches * edits_per_batch) in
  let batches =
    List.init n_batches (fun b ->
        List.filteri (fun i _ -> i / edits_per_batch = b) names
        |> List.map (fun node ->
               Transform.Edit.Annotate { node; extra = 0.0001 }))
  in
  let last = ref r0 in
  let resolve_s =
    List.map
      (fun batch ->
        let r, dt = time_wall (fun () -> ok (Engine.resolve session batch)) in
        last := r;
        dt)
      batches
  in
  let applied = Transform.Edit.apply comb (List.concat batches) in
  let rc, cold_s =
    time_wall (fun () ->
        ok (Engine.run cfg (ok (Engine.stage_of ~edits:applied p))))
  in
  let identical =
    !last.Engine.outcome = rc.Engine.outcome
    && !last.Engine.extras = rc.Engine.extras
  in
  let counters, _ = Rar_obs.Metrics.snapshot () in
  Rar_obs.Metrics.disarm ();
  Printf.printf
    "  eco %7d gates: stage %6.2fs, cold %6.2fs, warm-up %6.2fs, %d batches \
     mean %6.3fs, identical %b\n%!"
    gates stage_s cold_s warm_s n_batches
    (List.fold_left ( +. ) 0. resolve_s /. float_of_int (List.length resolve_s))
    identical;
  {
    eco_circuit = spec.Rar_circuits.Spec.name;
    eco_gates = gates;
    eco_stage_s = stage_s;
    eco_warm_s = warm_s;
    eco_resolve_s = resolve_s;
    eco_cold_s = cold_s;
    eco_identical = identical;
    eco_counters = counters;
  }

(* The headline ratio uses the *median* resolve: an edit that does
   flip a downstream classification legitimately pays a genuine
   re-solve, and one such batch must not mask the steady-state cost
   of the others (every per-batch time is still reported). *)
let eco_json st =
  let n = max 1 (List.length st.eco_resolve_s) in
  let mean = List.fold_left ( +. ) 0. st.eco_resolve_s /. float_of_int n in
  let median =
    match List.sort compare st.eco_resolve_s with
    | [] -> 0.
    | sorted -> List.nth sorted ((n - 1) / 2)
  in
  Printf.sprintf
    "{ \"circuit\": \"%s\", \"gates\": %d, \"engine\": \"grar\", \
     \"stage_make_s\": %.4f, \"cold_solve_s\": %.4f, \"warmup_resolve_s\": \
     %.4f, \"resolve_s\": [%s], \"mean_resolve_s\": %.4f, \
     \"median_resolve_s\": %.4f, \"speedup\": %.2f, \"identical\": %b, \
     \"counters\": { %s } }"
    (json_escape st.eco_circuit)
    st.eco_gates st.eco_stage_s st.eco_cold_s st.eco_warm_s
    (String.concat ", " (List.map (Printf.sprintf "%.4f") st.eco_resolve_s))
    mean median
    (st.eco_cold_s /. Float.max 1e-9 median)
    st.eco_identical
    (counters_json st.eco_counters)

let write_bench_eval ~eco ~kernels ~resilience ~par_jobs ~stage_names
    ~table_names ~sim_cycles ~stage_seq ~stage_par ~tables_seq ~tables_par
    ~scaling ~jobs_curve =
  let path = "BENCH_eval.json" in
  let oc = open_out path in
  let pr fmt = Printf.fprintf oc fmt in
  let str_list names =
    String.concat ", "
      (List.map (fun n -> Printf.sprintf "\"%s\"" (json_escape n)) names)
  in
  pr "{\n";
  pr "  \"schema\": \"rar-bench-eval/1\",\n";
  pr
    "  \"host\": { \"cores\": %d, \"jobs_effective\": %d, \"rar_jobs_env\": \
     %s },\n"
    (Domain.recommended_domain_count ())
    jobs_effective
    (match Sys.getenv_opt "RAR_JOBS" with
    | Some v -> Printf.sprintf "\"%s\"" (json_escape v)
    | None -> "null");
  pr "  \"kernels\": [\n";
  List.iteri
    (fun i (name, ns) ->
      pr "    { \"name\": \"%s\", \"ns_per_run\": %.1f }%s\n"
        (json_escape name) ns
        (if i = List.length kernels - 1 then "" else ","))
    kernels;
  pr "  ],\n";
  pr "  \"resilience\": {%s},\n"
    (if resilience = [] then " "
     else
       " "
       ^ String.concat ", "
           (List.map
              (fun (label, r) ->
                Printf.sprintf "\"%s\": %.4f" (json_escape label) r)
              resilience)
       ^ " ");
  pr "  \"wallclock\": {\n";
  pr
    "    \"stage_make\": { \"circuits\": [%s], \"seq_s\": %.4f, \"par_s\": \
     %.4f, \"jobs\": %d, \"speedup\": %.2f },\n"
    (str_list stage_names) stage_seq stage_par par_jobs
    (stage_seq /. Float.max 1e-9 stage_par);
  pr
    "    \"all_tables\": { \"circuits\": [%s], \"sim_cycles\": %d, \"seq_s\": \
     %.4f, \"par_s\": %.4f, \"jobs\": %d, \"speedup\": %.2f }\n"
    (str_list table_names) sim_cycles tables_seq tables_par par_jobs
    (tables_seq /. Float.max 1e-9 tables_par);
  pr "  },\n";
  pr "  \"eco\": %s,\n" eco;
  let arr indent xs =
    if xs = [] then "[]"
    else
      Printf.sprintf "[\n%s%s\n%s]"
        (String.concat ",\n"
           (List.map (fun e -> indent ^ "  " ^ e) xs))
        "" indent
  in
  pr "  \"scaling\": {\n";
  pr "    \"curve\": %s,\n" (arr "    " scaling);
  pr "    \"jobs_curve\": %s\n" (arr "    " jobs_curve);
  pr "  }\n";
  pr "}\n";
  close_out oc;
  Printf.printf "\nwrote %s\n%!" path

let run_eval_json ~scaling kernels =
  let par_jobs =
    match Sys.getenv_opt "RAR_BENCH_JOBS" with
    | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some j when j >= 1 -> j
      | Some _ | None -> 4)
    | None -> 4
  in
  let stage_names = [ "s1423"; "s5378" ] in
  let table_names = [ "s1196"; "s1238"; "s1423" ] in
  let sim_cycles = 50 in
  Printf.printf
    "\n== Wall clock: sequential vs %d-domain pool ==\n%!" par_jobs;
  let stage_seq = wall_stage_make ~jobs:1 ~names:stage_names in
  let stage_par = wall_stage_make ~jobs:par_jobs ~names:stage_names in
  Printf.printf "  stage_make   %s: %.3fs seq, %.3fs par (%.2fx)\n%!"
    (String.concat "+" stage_names) stage_seq stage_par
    (stage_seq /. Float.max 1e-9 stage_par);
  let tables_seq = wall_all_tables ~jobs:1 ~names:table_names ~sim_cycles in
  let tables_par =
    wall_all_tables ~jobs:par_jobs ~names:table_names ~sim_cycles
  in
  Printf.printf "  all_tables   %s: %.3fs seq, %.3fs par (%.2fx)\n%!"
    (String.concat "+" table_names) tables_seq tables_par
    (tables_seq /. Float.max 1e-9 tables_par);
  Rar_util.Pool.set_jobs 1;
  let resilience = resilience_ratios classic_graph in
  List.iter
    (fun (label, r) -> Printf.printf "  %-28s %12.3fx\n%!" label r)
    resilience;
  let jobs_curve = run_jobs_curve ~table_names ~sim_cycles in
  Printf.printf "\n== ECO: cold solve vs edit-and-resolve ==\n%!";
  let eco =
    eco_json (eco_measure ~gates:eco_gates ~n_batches:4 ~edits_per_batch:3)
  in
  write_bench_eval ~eco ~kernels ~resilience ~par_jobs ~stage_names
    ~table_names ~sim_cycles ~stage_seq ~stage_par ~tables_seq ~tables_par
    ~scaling ~jobs_curve

(* ------------------------------------------------------------------ *)
(* CI bench smoke                                                      *)
(* ------------------------------------------------------------------ *)

(* RAR_BENCH_SMOKE=1 selects a seconds-long subset that pushes a tiny
   circuit through the same Bechamel + JSON plumbing: CI validates the
   emitted rar-bench-eval/1 document and compares the
   smoke/classic_retiming estimate against the checked-in floor
   (bench/smoke_floor.json), failing on a > 2x regression. *)

let smoke_net =
  lazy
    (let spec =
       {
         (Option.get (Rar_circuits.Spec.find "s1196")) with
         Rar_circuits.Spec.n_gates = 150;
         depth = 8;
       }
     in
     Rar_circuits.Generator.generate spec)

let smoke_graph () =
  let lib = Rar_liberty.Liberty.default () in
  Classic.of_netlist ~host_registers:1 ~lib (Lazy.force smoke_net)

let smoke_tests =
  [
    Test.make ~name:"smoke/classic_retiming"
      (Staged.stage (retime_classic smoke_graph));
  ]

let run_smoke () =
  let kernels =
    measure_kernels
      ~banner:"== Bechamel smoke kernels (generated 150-gate circuit) =="
      smoke_tests
  in
  let par_jobs = 2 in
  let stage_names = [ "s1196" ] in
  let table_names = [ "s1196" ] in
  let sim_cycles = 5 in
  Printf.printf "\n== Wall clock (smoke): sequential vs %d-domain pool ==\n%!"
    par_jobs;
  let stage_seq = wall_stage_make ~jobs:1 ~names:stage_names in
  let stage_par = wall_stage_make ~jobs:par_jobs ~names:stage_names in
  let tables_seq = wall_all_tables ~jobs:1 ~names:table_names ~sim_cycles in
  let tables_par =
    wall_all_tables ~jobs:par_jobs ~names:table_names ~sim_cycles
  in
  Rar_util.Pool.set_jobs 1;
  let resilience = resilience_ratios smoke_graph in
  List.iter
    (fun (label, r) -> Printf.printf "  %-28s %12.3fx\n%!" label r)
    resilience;
  let jobs_curve = run_jobs_curve ~table_names ~sim_cycles in
  Printf.printf "\n== ECO smoke: cold solve vs edit-and-resolve ==\n%!";
  let eco =
    eco_json (eco_measure ~gates:2_000 ~n_batches:2 ~edits_per_batch:2)
  in
  write_bench_eval ~eco ~kernels ~resilience ~par_jobs ~stage_names
    ~table_names ~sim_cycles ~stage_seq ~stage_par ~tables_seq ~tables_par
    ~scaling:[] ~jobs_curve

(* RAR_BENCH_SCALE_SMOKE=1: one 10^5-gate classic-FEAS row plus one
   gated 10^5-gate G-RAR row through the scaling plumbing, written to
   BENCH_scale.json and gated in CI against the wall-clock ceilings in
   bench/smoke_floor.json (scale_total_max_s for FEAS,
   grar_scale_max_s for the G-RAR row) — so neither the million-gate
   FEAS path nor the G-RAR hot paths (stage classification, pooled LP
   prep, the closure max flow) can silently regress. Both rows use
   [scale_smoke_gates], which the gate requires to equal scale_gates
   and grar_scale_gates there. Schema rar-bench-scale/2: rows carry a
   "counters" object with the solver-effort counters. *)
let scale_smoke_gates = 100_000

let run_scale_smoke () =
  let gates = scale_smoke_gates in
  Printf.printf "== Scale smoke (%d gates classic FEAS, %d gates G-RAR) ==\n%!"
    gates gates;
  let feas_entry, feas_s = time_wall (fun () -> scale_classic_feas ~gates) in
  let grar_entry, grar_s = time_wall (fun () -> scale_grar ~gates) in
  let total_s = feas_s +. grar_s in
  let path = "BENCH_scale.json" in
  let oc = open_out path in
  Printf.fprintf oc
    "{\n\
    \  \"schema\": \"rar-bench-scale/2\",\n\
    \  \"host\": { \"cores\": %d },\n\
    \  \"total_s\": %.4f,\n\
    \  \"feas_s\": %.4f,\n\
    \  \"grar_s\": %.4f,\n\
    \  \"curve\": [\n\
    \    %s,\n\
    \    %s\n\
    \  ]\n\
     }\n"
    (Domain.recommended_domain_count ())
    total_s feas_s grar_s feas_entry grar_entry;
  close_out oc;
  Printf.printf "\nwrote %s (%.1fs total)\n%!" path total_s

(* RAR_BENCH_ECO_SMOKE=1: the gated edit-and-resolve measurement on an
   [eco_gates]-gate generated circuit, written to BENCH_eco.json. CI
   requires speedup >= eco_speedup_min_ratio (bench/smoke_floor.json)
   and identical = true: a steady-state session resolve must beat the
   cold stage-analysis + LP-solve pipeline by the floor ratio while
   producing the same verified outcome. *)
let run_eco_smoke () =
  let gates = eco_gates in
  Printf.printf "== ECO smoke (%d gates, grar edit-and-resolve) ==\n%!" gates;
  let st, total_s =
    time_wall (fun () -> eco_measure ~gates ~n_batches:4 ~edits_per_batch:3)
  in
  let path = "BENCH_eco.json" in
  let oc = open_out path in
  Printf.fprintf oc
    "{\n\
    \  \"schema\": \"rar-bench-eco/1\",\n\
    \  \"host\": { \"cores\": %d },\n\
    \  \"total_s\": %.4f,\n\
    \  \"eco\": %s\n\
     }\n"
    (Domain.recommended_domain_count ())
    total_s (eco_json st);
  close_out oc;
  Printf.printf "\nwrote %s (%.1fs total)\n%!" path total_s

let run_tables () =
  let names =
    if Sys.getenv_opt "RAR_BENCH_FULL" = Some "1" then
      Rar_circuits.Spec.names
    else [ "s1196"; "s1238"; "s1423"; "s1488"; "s5378" ]
  in
  let t = Report.create ~names ~sim_cycles:200 () in
  List.iter
    (fun (_, title, body) ->
      Printf.printf "\n%s\n\n%s%!" title body)
    (Report.all_tables t)

(* Ablation: how much of the EDL saving survives once the error-signal
   collection tree (folded into c by the paper) is made explicit. *)
let run_cluster_ablation () =
  let lib = (Lazy.force prepared).Suite.lib in
  Printf.printf "\n== Ablation: error-collection tree (circuit %s, c = 1) ==\n"
    circuit;
  Printf.printf "  %-6s %6s %12s %14s %10s\n" "engine" "EDL#" "seq area"
    "seq + OR tree" "tree gates";
  List.iter
    (fun spec ->
      let cfg = Engine.config ~c:1.0 spec in
      let o = (ok (Engine.run cfg (Lazy.force stage_path))).Engine.outcome in
      let o', tree = Rar_retime.Edl_cluster.annotate ~lib o in
      Printf.printf "  %-6s %6d %12.2f %14.2f %10d\n" (Engine.name spec)
        (Outcome.ed_count o) o.Outcome.seq_area o'.Outcome.seq_area
        tree.Rar_retime.Edl_cluster.or_gates)
    Engine.[ Base; Vl Rvl; Grar ]

(* Ablation: resynthesis (buffer cleanup + timing-driven decomposition
   of wide gates) before retiming — the paper's related-work lever. *)
let run_resynth_ablation () =
  let lib = Rar_liberty.Liberty.default () in
  Printf.printf "\n== Ablation: resynthesis before retiming (circuit %s, c = 1) ==\n"
    circuit;
  let spec = Option.get (Rar_circuits.Spec.find circuit) in
  let net = Rar_circuits.Generator.generate spec in
  let net', rs = Rar_retime.Resynth.optimize ~lib net in
  Printf.printf
    "  rewrites: %d bufs removed, %d inv pairs removed, %d gates decomposed \
     (+%d internals)\n"
    rs.Rar_retime.Resynth.bufs_removed rs.Rar_retime.Resynth.inv_pairs_removed
    rs.Rar_retime.Resynth.gates_decomposed rs.Rar_retime.Resynth.gates_added;
  let show tag n =
    let p = Suite.prepare ~lib n in
    match Engine.stage_of p with
    | Error e -> Printf.printf "  %s: %s\n" tag (Rar_retime.Error.to_string e)
    | Ok st -> (
      match Engine.run (Engine.config ~c:1.0 Engine.Grar) st with
      | Error e ->
        Printf.printf "  %s: %s\n" tag (Rar_retime.Error.to_string e)
      | Ok { Engine.outcome = o; _ } ->
        Printf.printf
          "  %-12s P=%.3f slaves=%d edl=%d seq=%.2f comb=%.2f total=%.2f\n"
          tag p.Suite.p o.Outcome.n_slaves (Outcome.ed_count o)
          o.Outcome.seq_area o.Outcome.comb_area o.Outcome.total_area)
  in
  show "original" net;
  show "resynthesised" net'

let () =
  let env_on k = Sys.getenv_opt k = Some "1" in
  match Sys.argv with
  | [| _; "--scale-row"; path; gates |] ->
    print_endline (scale_row ~path ~gates:(int_of_string gates))
  | _ when env_on "RAR_BENCH_ECO_SMOKE" -> run_eco_smoke ()
  | _ when env_on "RAR_BENCH_SCALE_SMOKE" -> run_scale_smoke ()
  | _ when env_on "RAR_BENCH_SMOKE" -> run_smoke ()
  | _ ->
    let scaling = run_scaling () in
    let kernels = run_benchmarks () in
    run_eval_json ~scaling kernels;
    run_cluster_ablation ();
    run_resynth_ablation ();
    run_tables ()
