(* Benchmark harness. One command rewrites the checked-in BENCH
   documents, each from one producer at one fixed size, so CI gates the
   same sizes that are checked in:

     dune exec bench/main.exe [eval|scale|eco|all]      (default: all)

   eval   BENCH_eval.json: Bechamel kernels for the Table VII LP-engine
          ablation and the Table VIII simulation on s1423, and for the
          classic-retiming pipeline on a generated 150-gate circuit (the
          kernel bench/smoke_floor.json gates); the paired deadline and
          tracing overhead ratios on that same pipeline; the all_tables
          jobs curve. Then it prints two ablations.
   scale  BENCH_scale.json: classic-FEAS and G-RAR rows at 25k and 100k
          gates, each row in its own child process.
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
module Classic = Rar_retime.Classic
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

(* The checked-out revision, read from .git as rarbench reads it (a
   packed ref included); null outside a checkout. *)
let git_rev () =
  let read f = String.trim (In_channel.with_open_text f In_channel.input_all) in
  let packed r =
    match read ".git/packed-refs" with
    | exception Sys_error _ -> None
    | text ->
      List.find_map
        (fun line ->
          match String.split_on_char ' ' line with
          | [ sha; r' ] when r' = r -> Some sha
          | _ -> None)
        (String.split_on_char '\n' text)
  in
  let rev =
    match read ".git/HEAD" with
    | exception Sys_error _ -> None
    | head -> (
      match Scanf.sscanf_opt head "ref: %s" Fun.id with
      | None -> Some head
      | Some r -> (
        match read (Filename.concat ".git" r) with
        | sha -> Some sha
        | exception Sys_error _ -> packed r))
  in
  Option.fold ~none:Json.Null ~some:(fun s -> Json.String s) rev

let host () =
  Json.Obj
    [
      ("cores", Json.Int (Pool.host_cores ()));
      ("jobs_effective", Json.Int jobs_effective);
      ("git_rev", git_rev ());
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

(* The flow-engine effort counters published in every scale and ECO
   row: max-flow phases and augmentations for the default closure
   solve, pivots and block-pricing hits when network simplex runs, and
   LP-prep pruning. A fixed list keeps the row shape stable; absent
   counters read 0. *)
let counters_json counters =
  Json.Obj
    (List.map
       (fun k ->
         (k, Json.Int (Option.value ~default:0 (List.assoc_opt k counters))))
       [
         "maxflow_phases";
         "maxflow_augmentations";
         "netsimplex_pivots";
         "netsimplex_block_hits";
         "netsimplex_cycle_arcs";
         "netsimplex_shift_nodes";
         "endpoints_pruned";
       ])

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

(* The pipeline bench/smoke_floor.json gates: classic min-period
   retiming of a generated 150-gate circuit, end to end. *)
let classic_net =
  lazy
    (Rar_circuits.Generator.generate
       {
         (Option.get (Rar_circuits.Spec.find "s1196")) with
         Rar_circuits.Spec.n_gates = 150;
         depth = 8;
       })

let retime_classic ?deadline () =
  let lib = Rar_liberty.Liberty.default () in
  let g = Classic.of_netlist ~host_registers:1 ~lib (Lazy.force classic_net) in
  let pmin = Classic.min_period ?deadline g in
  ignore (ok (Classic.retime ?deadline g ~period:pmin))

let solve_kernel name engine =
  Test.make ~name (Staged.stage (fun () ->
      let g = Rgraph.build ~edl_overhead:1.0 (Lazy.force stage_path) in
      ignore (ok (Rgraph.solve ~engine g))))

let kernels =
  [
    solve_kernel "table_vii/engine_simplex" Difflp.Network_simplex;
    solve_kernel "table_vii/engine_ssp" Difflp.Ssp;
    solve_kernel "table_vii/engine_closure" Difflp.Closure;
    Test.make ~name:"table_viii/sim_50_cycles" (Staged.stage (fun () ->
        ignore (Sim.error_rate ~cycles:50 ~seed:"bench" (Lazy.force sim_design))));
    Test.make ~name:"smoke/classic_retiming"
      (Staged.stage (fun () -> retime_classic ()));
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
   rounds alternate plain and armed runs instead (four rounds of three
   runs each), so drift hits both sides equally and cancels out of the
   quotient. *)
let paired_ratio ~plain ~armed =
  let time f = snd (time_wall (fun () -> for _ = 1 to 3 do f () done)) in
  plain ();
  armed ();
  let plain_s = ref 0. and armed_s = ref 0. in
  for _ = 1 to 4 do
    plain_s := !plain_s +. time plain;
    armed_s := !armed_s +. time armed
  done;
  !armed_s /. Float.max 1e-9 !plain_s

(* What an armed deadline (strided in-loop checks at full frequency,
   far enough out never to fire) and armed tracing + metrics add to the
   gated classic pipeline. Both are capped at 1.05x in
   bench/smoke_floor.json. *)
let overhead () =
  let plain () = retime_classic () in
  let deadline () =
    retime_classic ~deadline:(Rar_util.Deadline.make ~budget_s:86400.) ()
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

(* Report.all_tables on three circuits at 50 simulated cycles, on a
   fresh context per job count (requested sizes; the pool clamps each
   to the host). *)
let jobs_curve () =
  let names = [ "s1196"; "s1238"; "s1423" ] and sim_cycles = 50 in
  Printf.printf "\n== Jobs curve: all_tables on %s ==\n%!"
    (String.concat "," names);
  let first_s = ref None in
  let rows =
    List.map
      (fun jobs ->
        with_jobs jobs @@ fun () ->
        let t = Report.create ~names ~sim_cycles () in
        let _, dt = time_wall (fun () -> Report.all_tables t) in
        let eff = Pool.effective_jobs () in
        let first = Option.value !first_s ~default:dt in
        first_s := Some first;
        let speedup = first /. Float.max 1e-9 dt in
        Printf.printf "  jobs=%d (effective %d): %.3fs (%.2fx vs jobs=1)\n%!"
          jobs eff dt speedup;
        Json.Obj
          [
            ("jobs_requested", Json.Int jobs);
            ("jobs_effective", Json.Int eff);
            ("all_tables_s", num dt);
            ("speedup_vs_first", num speedup);
          ])
      [ 1; 2; 4 ]
  in
  Json.Obj
    [
      ("circuits", Json.List (List.map (fun n -> Json.String n) names));
      ("sim_cycles", Json.Int sim_cycles);
      ("rows", Json.List rows);
    ]

(* Ablation: how much of the EDL saving survives once the error-signal
   collection tree (folded into c by the paper) is made explicit. *)
let run_cluster_ablation () =
  let lib = (Report.prepared ctx circuit).Suite.lib in
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

let run_eval () =
  let kernels = measure_kernels () in
  Printf.printf "\n== Overhead: armed vs plain classic pipeline ==\n%!";
  let overhead = with_jobs 1 overhead in
  let jobs_curve = jobs_curve () in
  write_doc "BENCH_eval.json"
    (Json.Obj
       [
         ("schema", Json.String "rar-bench-eval/2");
         ("host", host ());
         ("kernels", Json.List kernels);
         ("overhead", overhead);
         ("jobs_curve", jobs_curve);
       ]);
  run_cluster_ablation ();
  run_resynth_ablation ()

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
   from the CLI), with its span split, effort counters and peak RSS.
   [classic_feas] is classic min-period retiming through the
   matrix-free FEAS route, the only classic path that fits 10^6 gates;
   [grar] is prepare + stage + the G-RAR engine. *)
let scale_row ~path ~gates =
  let spec = Rar_circuits.Defaults.scale_spec ~gates in
  let net, generate_s =
    time_wall (fun () -> Rar_circuits.Generator.generate spec)
  in
  let measure f = time_wall (fun () -> span_totals f) in
  let phase, dt, spans, counters, stats =
    match path with
    | "classic_feas" ->
      let lib = Rar_liberty.Liberty.default () in
      let ((p0, o), spans, counters), dt =
        measure (fun () ->
            let g = Classic.of_netlist ~host_registers:1 ~lib net in
            (Classic.period_of g, ok (Classic.retime_feas g)))
      in
      Printf.printf
        "  classic_feas %7d gates: gen %6.2fs, retime %6.2fs, %.3f -> %.3f \
         ns, %d -> %d regs\n%!"
        gates generate_s dt p0 o.Classic.achieved_period
        o.Classic.registers_before o.Classic.registers_after;
      ( "retime_s",
        dt,
        spans,
        counters,
        [
          ("period_before_ns", num p0);
          ("period_after_ns", num o.Classic.achieved_period);
          ("registers_before", Json.Int o.Classic.registers_before);
          ("registers_after", Json.Int o.Classic.registers_after);
        ] )
    | "grar" ->
      let ((p, r), spans, counters), dt =
        measure (fun () ->
            let p = Suite.prepare net in
            let cfg = Engine.config ~c:1.0 Engine.Grar in
            (p, ok (Engine.run cfg (ok (Engine.stage_of p)))))
      in
      let o = r.Engine.outcome in
      Printf.printf
        "  grar         %7d gates: gen %6.2fs, run    %6.2fs, P %.3f ns, %d \
         slaves, %d EDLs\n%!"
        gates generate_s dt p.Suite.p o.Outcome.n_slaves (Outcome.ed_count o);
      ( "run_s",
        dt,
        spans,
        counters,
        [
          ("p_ns", num p.Suite.p);
          ("n_slaves", Json.Int o.Outcome.n_slaves);
          ("edl_count", Json.Int (Outcome.ed_count o));
          ("total_area", num o.Outcome.total_area);
        ] )
    | _ -> invalid_arg ("unknown scale path " ^ path)
  in
  Json.Obj
    ([
       ("circuit", Json.String spec.Rar_circuits.Spec.name);
       ("gates", Json.Int gates);
       ("path", Json.String path);
       ("phases", Json.Obj [ ("generate_s", num generate_s); (phase, num dt) ]);
       ("spans", spans);
       ("counters", counters_json counters);
     ]
    @ stats
    @ [ ("peak_rss_mb", peak_rss_mb ()) ])

(* Every row runs in a child process of this executable
   ([--scale-row PATH GATES]), so each gets a fresh heap and its own
   peak RSS: a 10^5-gate G-RAR row peaks at ~1.2 GB, and OCaml 5.1's
   [Gc.compact] cannot return a fragmented heap, so rows sharing one
   heap would carry their high-water marks into every later row. The
   child prints its progress line, then the row as its last line. *)
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
  let fail why = failwith (Printf.sprintf "scale row %s/%d %s" path gates why) in
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
    List.concat_map
      (fun gates ->
        List.map
          (fun path -> scale_row_in_child ~path ~gates)
          [ "classic_feas"; "grar" ])
      [ 25_000; 100_000 ]
  in
  write_doc "BENCH_scale.json"
    (Json.Obj
       [
         ("schema", Json.String "rar-bench-scale/3");
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
   classification leave the LP byte-identical and steady-state
   resolves replay the cached solution: the measured speedup is
   cone-limited re-analysis plus a solve-cache hit versus the full
   cold stage + solve pipeline. The first resolve (empty batch) pays
   the one-time cache-priming solve and is reported separately. The
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
      ("counters", counters_json counters);
    ]

let run_eco () =
  Printf.printf "\n== ECO: cold solve vs edit-and-resolve ==\n%!";
  let eco, total_s = time_wall eco_measure in
  write_doc "BENCH_eco.json"
    (Json.Obj
       [
         ("schema", Json.String "rar-bench-eco/2");
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
  | [ "--scale-row"; path; gates ] ->
    print_endline (Json.to_string (scale_row ~path ~gates:(int_of_string gates)))
  | [] | [ "all" ] -> List.iter run_mode_in_child [ "eval"; "scale"; "eco" ]
  | [ "eval" ] -> run_eval ()
  | [ "scale" ] -> run_scale ()
  | [ "eco" ] -> run_eco ()
  | _ ->
    prerr_endline "usage: main.exe [eval|scale|eco|all]";
    exit 2
