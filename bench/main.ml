(* Benchmark harness. One command rewrites the checked-in BENCH
   documents, each from one producer at one fixed size, so CI gates the
   same sizes that are checked in:

     dune exec bench/main.exe [eval|scale|eco|all]      (default: all)

   eval   BENCH_eval.json: Bechamel kernels on s1423 for the Table VII
          LP-engine ablation, the Table VIII simulation and the G-RAR
          pipeline (stage analysis and engine run on the prepared
          circuit, the kernel bench/smoke_floor.json gates); the paired
          deadline and tracing overhead ratios on that same pipeline.
   scale  BENCH_scale.json: G-RAR rows at 25k and 100k gates, each row
          in its own child process.
   eco    BENCH_eco.json: the 25k-gate edit-and-resolve measurement.

   EXPERIMENTS.md documents the schemas; scripts/ci_gates holds one
   gate per document. *)

open Bechamel
open Toolkit

module Json = Rar_util.Json
module Pool = Rar_util.Pool
module Report = Rar_report.Report
module Suite = Rar_circuits.Suite
module Rgraph = Rar_retime.Rgraph
module Outcome = Rar_retime.Outcome
module Sim = Rar_sim.Sim
module Difflp = Rar_flow.Difflp
module Transform = Rar_netlist.Transform
module Engine = Rar_engine

let ok = function
  | Ok v -> v
  | Error e -> failwith (Rar_retime.Error.to_string e)

let time_wall f =
  let t0 = Rar_util.Clock.now_s () in
  let r = f () in
  (r, Rar_util.Clock.now_s () -. t0)

(* ------------------------------------------------------------------ *)
(* Documents                                                           *)
(* ------------------------------------------------------------------ *)

(* Times and ratios are kept to four decimals. *)
let num x = Json.Float (Float.round (x *. 1e4) /. 1e4)

(* The pool size every measurement runs at unless it pins its own
   (the default, or RAR_JOBS, clamped to the host). *)
let jobs_effective = Pool.effective_jobs ()

let with_jobs j f =
  Pool.set_jobs j;
  Fun.protect ~finally:(fun () -> Pool.set_jobs jobs_effective) f

(* The digest of the sources the numbers come from, read from the
   checkout in the cwd (null outside one), in the encoding
   EXPERIMENTS.md gives. The CI gates recompute it from the tree, so a
   document written before a source change reads stale. *)
let src_digest () =
  let rec walk dir acc =
    Array.fold_left
      (fun acc name ->
        let path = dir ^ "/" ^ name in
        if name.[0] = '.' then acc
        else if Sys.is_directory path then walk path acc
        else if
          name = "dune"
          || Filename.check_suffix name ".ml"
          || Filename.check_suffix name ".mli"
        then path :: acc
        else acc)
      acc (Sys.readdir dir)
  in
  match List.fold_right walk [ "lib"; "bin"; "bench" ] [] with
  | exception Sys_error _ -> Json.Null
  | files ->
    let b = Buffer.create (1 lsl 20) in
    List.iter
      (fun path ->
        let text = In_channel.with_open_bin path In_channel.input_all in
        Printf.bprintf b "%s\n%d\n%s" path (String.length text) text)
      (List.sort compare files);
    Json.String (Digest.to_hex (Digest.string (Buffer.contents b)))

let host () =
  Json.Obj
    [
      ("cores", Json.Int (Pool.host_cores ()));
      ("jobs_effective", Json.Int jobs_effective);
      ("src_digest", src_digest ());
    ]

(* The one writer of every BENCH document. A container whose compact
   form is longer than 100 characters gets one entry per line, so a
   regenerated file diffs row by row. *)
let write_doc path doc =
  let buf = Buffer.create 4096 in
  let rec go indent v =
    let flat = Json.to_string v in
    let entries =
      if String.length flat <= 100 then None
      else
        match v with
        | Json.Obj fields ->
          Some
            ( '{',
              '}',
              List.map
                (fun (k, x) -> (Json.to_string (Json.String k) ^ ": ", x))
                fields )
        | Json.List xs -> Some ('[', ']', List.map (fun x -> ("", x)) xs)
        | _ -> None
    in
    match entries with
    | None -> Buffer.add_string buf flat
    | Some (opening, closing, entries) ->
      let inner = indent ^ "  " in
      Buffer.add_char buf opening;
      List.iteri
        (fun i (key, x) ->
          Buffer.add_string buf (if i = 0 then "\n" else ",\n");
          Buffer.add_string buf inner;
          Buffer.add_string buf key;
          go inner x)
        entries;
      Buffer.add_string buf ("\n" ^ indent);
      Buffer.add_char buf closing
  in
  go "" doc;
  Buffer.add_char buf '\n';
  Out_channel.with_open_text path (fun oc -> Buffer.output_buffer oc buf);
  Printf.printf "\nwrote %s\n%!" path

(* Run [f] under armed tracing and metrics; return its result, the
   summed inclusive wall seconds per span name and the counter
   snapshot. *)
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
    Json.Obj
      (List.sort compare (Hashtbl.fold (fun k v a -> (k, num v) :: a) totals [])),
    counters )

(* The effort counters published in every scale and ECO row: max-flow
   phases and augmentations for the default closure solve, pivots and
   block-pricing hits when network simplex runs, LP-prep pruning, and
   stage classification's sinks decided by the prune bound, the summed
   cones of the others and the summed unions of their batches; [extra]
   names a row's own. A fixed list keeps the row shape stable; absent
   counters read 0. *)
let counters_json ?(extra = []) counters =
  Json.Obj
    (List.map
       (fun k ->
         (k, Json.Int (Option.value ~default:0 (List.assoc_opt k counters))))
       ([
         "maxflow_phases";
         "maxflow_augmentations";
         "netsimplex_pivots";
         "netsimplex_block_hits";
         "netsimplex_cycle_arcs";
         "netsimplex_shift_nodes";
         "endpoints_pruned";
         "stage_sinks_pruned";
         "stage_cone_nodes";
         "stage_sweep_nodes";
       ]
       @ extra))

(* ------------------------------------------------------------------ *)
(* eval: BENCH_eval.json                                               *)
(* ------------------------------------------------------------------ *)

(* s1423 is the smallest benchmark on which every engine behaves
   non-trivially. *)
let circuit = "s1423"
let ctx = Report.create ~names:[ circuit ] ~sim_cycles:50 ()
let stage_path = lazy (Report.stage ctx circuit)

let sim_design =
  lazy
    (let r = Report.run ctx circuit ~spec:Engine.Grar ~c:1.0 in
     Report.sim_design r.Engine.stage r.Engine.outcome)

(* The pipeline bench/smoke_floor.json gates: G-RAR at c = 1 on the
   prepared circuit — stage analysis, LP build, the closure solve and
   the LP tail. Preparation (conversion, STA, clocking) stays outside
   the timed loop. *)
let grar_pipeline ?deadline () =
  let cfg = Engine.config ~c:1.0 Engine.Grar in
  ignore (ok (Engine.run_prepared ?deadline cfg (Report.prepared ctx circuit)))

let solve_kernel name engine =
  Test.make ~name (Staged.stage (fun () ->
      let g = Rgraph.build ~edl_overhead:1.0 (Lazy.force stage_path) in
      ignore (ok (Rgraph.solve ~engine g))))

let kernels =
  [
    solve_kernel "table_vii/engine_simplex" Difflp.Network_simplex;
    solve_kernel "table_vii/engine_closure" Difflp.Closure;
    Test.make ~name:"table_viii/sim_50_cycles" (Staged.stage (fun () ->
        ignore (Sim.error_rate ~cycles:50 ~seed:"bench" (Lazy.force sim_design))));
    Test.make ~name:"smoke/grar_pipeline"
      (Staged.stage (fun () -> grar_pipeline ()));
  ]

(* [~stabilize:false]: Bechamel's default compacts the heap before
   every sample, and after the hundreds of compactions a microsecond
   kernel takes, OCaml 5.1's major GC no longer keeps pace with
   allocation for the rest of the process — the sections that follow
   the kernels then grew the heap past 6 GB. *)
let measure_kernels () =
  let instance = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 2.0) ~kde:(Some 10)
      ~stabilize:false ()
  in
  Printf.printf "== Bechamel kernels (monotonic clock) ==\n%!";
  List.concat_map
    (fun test ->
      let results =
        Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"g" [ test ])
      in
      let ols =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false
             ~predictors:[| Measure.run |])
          instance results
      in
      Hashtbl.fold
        (fun name r acc ->
          match Analyze.OLS.estimates r with
          | Some [ est ] ->
            Printf.printf "  %-28s %12.0f ns/run\n%!" name est;
            Json.Obj [ ("name", Json.String name); ("ns_per_run", num est) ]
            :: acc
          | _ ->
            Printf.printf "  %-28s (no estimate)\n%!" name;
            acc)
        ols [])
    kernels

(* Wall-time quotient of [armed] over [plain]. The instrumentation
   cost is far below host noise, so the quotient of two independently
   measured Bechamel estimates flakes: clock-speed drift between the
   two measurement windows reads as "overhead". Interleaved paired
   rounds alternate plain and armed runs instead (eight rounds a side),
   so drift hits both sides equally and cancels out of the quotient.
   A round repeats the run until it lasts about a quarter second (the
   count is sized from the warm-up run), so a millisecond pipeline is
   timed over windows long enough for scheduler noise to average
   out. *)
let paired_ratio ~plain ~armed =
  let time k f = snd (time_wall (fun () -> for _ = 1 to k do f () done)) in
  let once = time 1 plain in
  armed ();
  let k = Int.max 3 (int_of_float (Float.ceil (0.25 /. Float.max 1e-6 once)))
  in
  let plain_s = ref 0. and armed_s = ref 0. in
  for _ = 1 to 8 do
    plain_s := !plain_s +. time k plain;
    armed_s := !armed_s +. time k armed
  done;
  !armed_s /. Float.max 1e-9 !plain_s

(* What an armed deadline (strided in-loop checks at full frequency,
   far enough out never to fire) and armed tracing + metrics add to the
   gated G-RAR pipeline. Both are capped at 1.05x in
   bench/smoke_floor.json. *)
let overhead () =
  let plain () = grar_pipeline () in
  let deadline () =
    grar_pipeline ~deadline:(Rar_util.Deadline.make ~budget_s:86400.) ()
  in
  let traced () =
    Rar_obs.Trace.clear ();
    Rar_obs.Trace.arm ();
    Rar_obs.Metrics.arm ();
    Fun.protect
      ~finally:(fun () ->
        Rar_obs.Trace.disarm ();
        Rar_obs.Metrics.disarm ();
        Rar_obs.Trace.clear ();
        Rar_obs.Metrics.reset ())
      plain
  in
  let ratios =
    [
      ("deadline_overhead_ratio", paired_ratio ~plain ~armed:deadline);
      ("trace_overhead_ratio", paired_ratio ~plain ~armed:traced);
    ]
  in
  List.iter (fun (k, r) -> Printf.printf "  %-28s %12.3fx\n%!" k r) ratios;
  Json.Obj (List.map (fun (k, r) -> (k, num r)) ratios)

let run_eval () =
  let kernels = measure_kernels () in
  Printf.printf "\n== Overhead: armed vs plain G-RAR pipeline ==\n%!";
  let overhead = with_jobs 1 overhead in
  write_doc "BENCH_eval.json"
    (Json.Obj
       [
         ("schema", Json.String "rar-bench-eval/4");
         ("host", host ());
         ("kernels", Json.List kernels);
         ("overhead", overhead);
       ])

(* ------------------------------------------------------------------ *)
(* scale: BENCH_scale.json                                             *)
(* ------------------------------------------------------------------ *)

(* This process's peak resident set (VmHWM) in whole MB; null where
   /proc is absent. *)
let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> Json.Null
  | status ->
    List.find_map
      (fun line ->
        Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb ->
            Json.Int ((kb + 512) / 1024)))
      (String.split_on_char '\n' status)
    |> Option.value ~default:Json.Null

(* One row on a generated [gates]-gate circuit (sizing shared with
   `rar generate` through Rar_circuits.Defaults, so a row reproduces
   from the CLI): prepare + stage + the G-RAR engine, with its span
   split, effort counters and peak RSS. *)
let scale_row ~gates =
  let spec = Rar_circuits.Defaults.scale_spec ~gates in
  let net, generate_s =
    time_wall (fun () -> Rar_circuits.Generator.generate spec)
  in
  let ((p, r), spans, counters), dt =
    time_wall (fun () ->
        span_totals (fun () ->
            let p = Suite.prepare net in
            let cfg = Engine.config ~c:1.0 Engine.Grar in
            (p, ok (Engine.run cfg (ok (Engine.stage_of p))))))
  in
  let o = r.Engine.outcome in
  Printf.printf
    "  grar %7d gates: gen %6.2fs, run %6.2fs, P %.3f ns, %d slaves, %d \
     EDLs\n%!"
    gates generate_s dt p.Suite.p o.Outcome.n_slaves (Outcome.ed_count o);
  Json.Obj
    [
      ("circuit", Json.String spec.Rar_circuits.Spec.name);
      ("gates", Json.Int gates);
      ( "phases",
        Json.Obj [ ("generate_s", num generate_s); ("run_s", num dt) ] );
      ("spans", spans);
      ("counters", counters_json counters);
      ("p_ns", num p.Suite.p);
      ("n_slaves", Json.Int o.Outcome.n_slaves);
      ("edl_count", Json.Int (Outcome.ed_count o));
      ("total_area", num o.Outcome.total_area);
      ("peak_rss_mb", peak_rss_mb ());
    ]

(* Every row runs in a child process of this executable
   ([--scale-row GATES]), so each gets a fresh heap and its own
   peak RSS: a 10^5-gate G-RAR row peaks at ~0.8 GB, and OCaml 5.1's
   [Gc.compact] cannot return a fragmented heap, so rows sharing one
   heap would carry their high-water marks into every later row. The
   child prints its progress line, then the row as its last line. *)
let scale_row_in_child ~gates =
  let exe = Sys.executable_name in
  let ic =
    Unix.open_process_args_in exe [| exe; "--scale-row"; string_of_int gates |]
  in
  let lines =
    In_channel.input_all ic |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  let fail why = failwith (Printf.sprintf "scale row %d %s" gates why) in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> fail "failed");
  match List.rev lines with
  | [] -> fail "printed nothing"
  | row :: progress -> (
    List.iter print_endline (List.rev progress);
    match Json.of_string row with
    | Ok j -> j
    | Error e -> fail ("printed a bad row: " ^ e))

let run_scale () =
  Printf.printf "\n== Scale rows (generated circuits, one child each) ==\n%!";
  let rows =
    List.map (fun gates -> scale_row_in_child ~gates) [ 25_000; 100_000 ]
  in
  write_doc "BENCH_scale.json"
    (Json.Obj
       [
         ("schema", Json.String "rar-bench-scale/5");
         ("host", host ());
         ("curve", Json.List rows);
       ])

(* ------------------------------------------------------------------ *)
(* eco: BENCH_eco.json                                                 *)
(* ------------------------------------------------------------------ *)

(* The circuit size; the eco gate requires it to equal eco_gates in
   bench/smoke_floor.json. *)
let eco_gates = 25_000

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

(* Cold-open a G-RAR run on the generated [eco_gates]-gate circuit,
   resolve four batches of three small delay annotations through an
   engine session, then cold re-solve the cumulatively edited netlist
   and check the session's last result against it. The G-RAR LP is
   built from the stage's discrete data only (regions, sink classes,
   cut sets, fanout groups), so annotations too small to flip a
   classification leave the stage's LP generation unchanged and
   steady-state resolves reuse the session's solution without building
   the LP: the measured speedup is cone-limited re-analysis plus the
   LP tail versus the full cold stage + solve pipeline. The first
   resolve (empty batch) pays the one-time priming solve (and the
   patch state's first build) and is reported separately. The
   headline ratio uses the median resolve: an edit that does flip a
   downstream classification legitimately pays a genuine re-solve, and
   one such batch must not mask the steady-state cost of the others. *)
let eco_measure () =
  let n_batches = 4 and edits_per_batch = 3 in
  Rar_obs.Metrics.reset ();
  Rar_obs.Metrics.arm ();
  let spec = Rar_circuits.Defaults.scale_spec ~gates:eco_gates in
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
  let mean = List.fold_left ( +. ) 0. resolve_s /. float_of_int n_batches in
  let median = List.nth (List.sort compare resolve_s) ((n_batches - 1) / 2) in
  Printf.printf
    "  eco %7d gates: stage %6.2fs, cold %6.2fs, warm-up %6.2fs, %d batches \
     mean %6.3fs, identical %b\n%!"
    eco_gates stage_s cold_s warm_s n_batches mean identical;
  Json.Obj
    [
      ("circuit", Json.String spec.Rar_circuits.Spec.name);
      ("gates", Json.Int eco_gates);
      ("engine", Json.String "grar");
      ("stage_make_s", num stage_s);
      ("cold_solve_s", num cold_s);
      ("warmup_resolve_s", num warm_s);
      ("resolve_s", Json.List (List.map num resolve_s));
      ("mean_resolve_s", num mean);
      ("median_resolve_s", num median);
      ("speedup", num (cold_s /. Float.max 1e-9 median));
      ("identical", Json.Bool identical);
      (* the ECO row adds the pins the patches re-relaxed and the
         resolves that reused the session's solution *)
      ( "counters",
        counters_json
          ~extra:[ "sta_incremental_pins"; "eco_solutions_reused" ]
          counters );
    ]

let run_eco () =
  Printf.printf "\n== ECO: cold solve vs edit-and-resolve ==\n%!";
  let eco, total_s = time_wall eco_measure in
  write_doc "BENCH_eco.json"
    (Json.Obj
       [
         ("schema", Json.String "rar-bench-eco/3");
         ("host", host ());
         ("total_s", num total_s);
         ("eco", eco);
       ])

(* [all] runs each mode in a child of this executable, so every
   document is measured from a fresh heap, as its CI job measures it. *)
let run_mode_in_child mode =
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe [| exe; mode |] Unix.stdin Unix.stdout Unix.stderr
  in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> failwith ("bench mode " ^ mode ^ " failed")

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "--scale-row"; gates ] ->
    print_endline (Json.to_string (scale_row ~gates:(int_of_string gates)))
  | [] | [ "all" ] -> List.iter run_mode_in_child [ "eval"; "scale"; "eco" ]
  | [ "eval" ] -> run_eval ()
  | [ "scale" ] -> run_scale ()
  | [ "eco" ] -> run_eco ()
  | _ ->
    prerr_endline "usage: main.exe [eval|scale|eco|all]";
    exit 2
