(* Tests for the extension modules: optimality certificates, min-period
   search, EDL clustering trees, VCD tracing. *)

module Problem = Rar_flow.Problem
module Ssp = Rar_flow.Ssp
module Netsimplex = Rar_flow.Netsimplex
module Certificate = Rar_flow.Certificate
module Rng = Rar_util.Rng
module Liberty = Rar_liberty.Liberty
module Suite = Rar_circuits.Suite
module Fig4 = Rar_circuits.Fig4
module Period_search = Rar_engine.Period_search
module Edl_cluster = Rar_retime.Edl_cluster
module Outcome = Rar_retime.Outcome
module Stage = Rar_retime.Stage
module Engine = Rar_engine
module Sim = Rar_sim.Sim
module Vcd = Rar_sim.Vcd
module Transform = Rar_netlist.Transform
module Netlist = Rar_netlist.Netlist

(* --- certificates -------------------------------------------------- *)

let random_problem rng =
  let n = 4 + Rng.int rng 6 in
  let p = Problem.create ~n in
  for _ = 1 to n * 2 do
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v then
      ignore (Problem.add_arc p ~src:u ~dst:v ~cost:(Rng.int rng 4))
  done;
  (* balanced random demands routed along an added backbone so the
     instance is likely feasible *)
  for v = 0 to n - 2 do
    ignore (Problem.add_arc p ~src:v ~dst:(v + 1) ~cost:1);
    ignore (Problem.add_arc p ~src:(v + 1) ~dst:v ~cost:1)
  done;
  let total = ref 0. in
  for v = 0 to n - 2 do
    let d = float_of_int (Rng.range rng (-3) 3) in
    Problem.add_demand p v d;
    total := !total +. d
  done;
  Problem.add_demand p (n - 1) (-. !total);
  p

let prop_solvers_certified =
  QCheck.Test.make ~name:"ssp and simplex solutions carry certificates"
    ~count:100
    QCheck.(int_bound 1000)
    (fun seed ->
      let p = random_problem (Rng.make (seed * 37 + 11)) in
      let check_one = function
        | Error _ -> true (* infeasible is fine for random instances *)
        | Ok (flow, potentials) ->
          Certificate.is_optimal (Certificate.check p ~flow ~potentials)
      in
      check_one
        (Result.map (fun (s : Ssp.solution) -> (s.Ssp.flow, s.Ssp.potentials))
           (Ssp.solve p))
      && check_one
           (Result.map
              (fun (s : Netsimplex.solution) ->
                (s.Netsimplex.flow, s.Netsimplex.potentials))
              (Netsimplex.solve p)))

let test_certificate_rejects_bogus () =
  let p = Problem.create ~n:2 in
  let _ = Problem.add_arc p ~src:0 ~dst:1 ~cost:1 in
  Problem.add_demand p 0 (-1.);
  Problem.add_demand p 1 1.;
  (* wrong flow: conservation violated *)
  let r = Certificate.check p ~flow:[| 0. |] ~potentials:[| 0; 0 |] in
  Alcotest.(check bool) "not optimal" false (Certificate.is_optimal r);
  Alcotest.(check int) "conservation flagged" 2 r.Certificate.conservation_violations;
  (* right flow, wrong potentials: slackness violated *)
  let r2 = Certificate.check p ~flow:[| 1. |] ~potentials:[| 0; 5 |] in
  Alcotest.(check bool) "slack or dual flagged" true
    (r2.Certificate.slackness_violations + r2.Certificate.dual_violations > 0)

(* --- period search -------------------------------------------------- *)

let test_fig4_min_feasible () =
  let cc = Fig4.circuit () in
  match Period_search.min_feasible ~lib:(Fig4.library ()) cc with
  | Error e -> Alcotest.fail (Rar_retime.Error.to_string e)
  | Ok s ->
    (* the critical path is 9.0; P must at least cover it and the
       walkthrough's 12.5 must be feasible *)
    Alcotest.(check bool) "above critical path" true (s.Period_search.p >= 9.0);
    Alcotest.(check bool) "at most the fig4 P" true (s.Period_search.p <= 12.51);
    Alcotest.(check bool) "bracket sane" true
      (s.Period_search.lo <= s.Period_search.p
      && s.Period_search.p <= s.Period_search.hi)

let test_fig4_detection_free_above_feasible () =
  let cc = Fig4.circuit () in
  let lib = Fig4.library () in
  match
    (Period_search.min_feasible ~lib cc, Period_search.min_detection_free ~lib cc)
  with
  | Ok f, Ok d ->
    Alcotest.(check bool) "detection-free needs at least as much period" true
      (d.Period_search.p >= f.Period_search.p -. 1e-6)
  | Error e, _ | _, Error e -> Alcotest.fail (Rar_retime.Error.to_string e)

(* --- EDL clustering ------------------------------------------------- *)

let test_cluster_empty () =
  let t = Edl_cluster.build ~lib:(Liberty.default ()) 0 in
  Alcotest.(check int) "no gates" 0 t.Edl_cluster.or_gates;
  Alcotest.(check (float 0.)) "no area" 0. t.Edl_cluster.area

let test_cluster_counts () =
  let lib = Liberty.default () in
  let t = Edl_cluster.build ~max_cluster:16 ~or_arity:4 ~lib 40 in
  Alcotest.(check int) "clusters" 3 t.Edl_cluster.clusters;
  (* 40 signals in clusters of 14/13/13: trees need 5+5+5 gates = 15?
     compute: ceil(14/4)=4 then ceil(4/4)=1 -> 5 gates, depth 2; same
     for 13 -> 5; top tree over 3 -> 1 gate. *)
  Alcotest.(check int) "or gates" 16 t.Edl_cluster.or_gates;
  Alcotest.(check int) "depth" 3 t.Edl_cluster.depth;
  Alcotest.(check bool) "area positive" true (t.Edl_cluster.area > 0.)

let test_cluster_monotone =
  QCheck.Test.make ~name:"collection tree grows with EDL count" ~count:50
    QCheck.(pair (int_bound 200) (int_bound 200))
    (fun (a, b) ->
      let lib = Liberty.default () in
      let lo = min a b and hi = max a b in
      let ta = Edl_cluster.build ~lib lo and tb = Edl_cluster.build ~lib hi in
      ta.Edl_cluster.area <= tb.Edl_cluster.area +. 1e-9)

let test_annotate () =
  let stage =
    match
      Stage.make ~lib:(Fig4.library ()) ~clocking:Fig4.clocking
        (Fig4.circuit ())
    with
    | Ok s -> s
    | Error e -> failwith (Rar_retime.Error.to_string e)
  in
  match Engine.run (Engine.config ~c:0.5 Engine.Grar) stage with
  | Error e -> Alcotest.fail (Rar_retime.Error.to_string e)
  | Ok r ->
    let o = r.Engine.outcome in
    let o', tree = Edl_cluster.annotate ~lib:(Fig4.library ()) o in
    Alcotest.(check int) "signals = edl" (Outcome.ed_count o)
      tree.Edl_cluster.n_signals;
    Alcotest.(check (float 1e-9)) "area added"
      (o.Outcome.total_area +. tree.Edl_cluster.area)
      o'.Outcome.total_area

(* --- VCD -------------------------------------------------------------- *)

let test_vcd_trace () =
  let stage =
    match
      Stage.make ~lib:(Fig4.library ()) ~clocking:Fig4.clocking
        (Fig4.circuit ())
    with
    | Ok s -> s
    | Error e -> failwith (Rar_retime.Error.to_string e)
  in
  match Engine.run (Engine.config ~c:2.0 Engine.Grar) stage with
  | Error e -> Alcotest.fail (Rar_retime.Error.to_string e)
  | Ok r ->
    let cc = Stage.cc r.Engine.stage in
    let staged =
      Transform.apply_retiming cc r.Engine.outcome.Outcome.placements
    in
    let d =
      { Sim.staged; lib = Fig4.library (); clocking = Fig4.clocking;
        ed_sinks = [] }
    in
    let vcd = Vcd.create d in
    let n = Array.length (Netlist.inputs staged) in
    let _ = Vcd.record_cycle vcd ~prev:(Array.make n false) ~next:(Array.make n true) in
    let _ = Vcd.record_cycle vcd ~prev:(Array.make n true) ~next:(Array.make n false) in
    let text = Vcd.to_string vcd in
    let has sub =
      let ls = String.length sub and lt = String.length text in
      let rec go i = i + ls <= lt && (String.sub text i ls = sub || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "header" true (has "$timescale 1ps $end");
    Alcotest.(check bool) "var decls" true (has "$var wire 1");
    Alcotest.(check bool) "O9 present" true (has "O9");
    Alcotest.(check bool) "time marks" true (has "#")

(* --- jobs byte-identity on the pooled G-RAR hot paths -------------- *)

let test_grar_identical_across_jobs () =
  (* The pooled per-sink prep (Stage.make's classification fan-out over
     [Pool.map_adaptive], the rgraph endpoint dedup) and the
     block-priced simplex must produce byte-identical results at every
     pool size. The circuit has > 512 sinks so the adaptive fan-out
     takes its parallel branch rather than the sequential floor. *)
  let spec =
    { (Option.get (Rar_circuits.Spec.find "s1196")) with
      Rar_circuits.Spec.n_flops = 560;
      n_gates = 2200;
      depth = 10 }
  in
  let net = Rar_circuits.Generator.generate spec in
  let p = Suite.prepare net in
  let run () =
    let stage =
      match
        Stage.make ~lib:p.Suite.lib ~clocking:p.Suite.clocking p.Suite.cc
      with
      | Ok s -> s
      | Error e -> Alcotest.fail (Rar_retime.Error.to_string e)
    in
    match Engine.run (Engine.config ~c:1.0 Engine.Grar) stage with
    | Ok
        {
          Engine.outcome = o;
          extras = Engine.Retiming { r; modelled_non_ed; _ };
          _;
        } ->
      Digest.to_hex
        (Digest.string
           (Marshal.to_string
              (r, modelled_non_ed, o.Outcome.placements, o.Outcome.ed_sinks)
              []))
    | Ok _ -> Alcotest.fail "G-RAR reports a retiming"
    | Error e -> Alcotest.fail (Rar_retime.Error.to_string e)
  in
  let reference = run () in
  Fun.protect ~finally:(fun () -> Rar_util.Pool.set_jobs 1) @@ fun () ->
  List.iter
    (fun jobs ->
      Rar_util.Pool.set_jobs jobs;
      Alcotest.(check string)
        (Printf.sprintf "digest identical at jobs=%d" jobs)
        reference (run ()))
    [ 2; 4 ]

let suite =
  [
    QCheck_alcotest.to_alcotest prop_solvers_certified;
    Alcotest.test_case "certificate rejects bogus" `Quick
      test_certificate_rejects_bogus;
    Alcotest.test_case "fig4 min feasible period" `Quick
      test_fig4_min_feasible;
    Alcotest.test_case "detection-free period dominates" `Quick
      test_fig4_detection_free_above_feasible;
    Alcotest.test_case "cluster empty" `Quick test_cluster_empty;
    Alcotest.test_case "cluster counts" `Quick test_cluster_counts;
    QCheck_alcotest.to_alcotest test_cluster_monotone;
    Alcotest.test_case "cluster annotate" `Quick test_annotate;
    Alcotest.test_case "vcd trace" `Quick test_vcd_trace;
    Alcotest.test_case "G-RAR identical across pool sizes" `Quick
      test_grar_identical_across_jobs;
  ]
