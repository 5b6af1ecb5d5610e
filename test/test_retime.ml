(* Retiming-engine properties on generated benchmark circuits: every
   result must be a legal single-latch-per-path placement with no
   max-delay violations; the three LP engines must agree; G-RAR must
   never lose to base retiming on its own objective. *)

module Netlist = Rar_netlist.Netlist
module Transform = Rar_netlist.Transform
module Liberty = Rar_liberty.Liberty
module Sta = Rar_sta.Sta
module Clocking = Rar_sta.Clocking
module Spec = Rar_circuits.Spec
module Generator = Rar_circuits.Generator
module Suite = Rar_circuits.Suite
module Stage = Rar_retime.Stage
module Rgraph = Rar_retime.Rgraph
module Outcome = Rar_retime.Outcome
module Difflp = Rar_flow.Difflp
module Engine = Rar_engine

let small_spec seed =
  {
    Spec.name = "prop";
    n_flops = 12 + (seed mod 17);
    n_pi = 4 + (seed mod 5);
    n_po = 3 + (seed mod 4);
    n_gates = 120 + (7 * (seed mod 23));
    depth = 7 + (seed mod 6);
    nce_target = 3 + (seed mod 6);
    seed = Printf.sprintf "prop%d" seed;
    src_bias_pct = 55;
  }

let stage_of_spec spec =
  let p = Suite.prepare (Generator.generate spec) in
  match Stage.make ~lib:p.Suite.lib ~clocking:p.Suite.clocking p.Suite.cc with
  | Ok st -> st
  | Error e -> failwith (Rar_retime.Error.to_string e)

let cached_stage =
  let tbl = Hashtbl.create 8 in
  fun seed ->
    match Hashtbl.find_opt tbl seed with
    | Some st -> st
    | None ->
      let st = stage_of_spec (small_spec seed) in
      Hashtbl.replace tbl seed st;
      st

let run spec ~c st = Engine.run (Engine.config ~c spec) st

(* Per-engine legality properties live in Test_engine now, swept over
   the whole registry. *)

let prop_engines_agree_on_objective =
  QCheck.Test.make ~name:"LP engines agree on the G-RAR objective" ~count:12
    QCheck.(pair (int_bound 40) (oneofl [ 0.5; 1.0; 2.0 ]))
    (fun (seed, c) ->
      let st = cached_stage seed in
      let g = Rgraph.build ~edl_overhead:c st in
      let objectives =
        List.filter_map
          (fun engine ->
            match Rgraph.solve ~engine g with
            | Ok r -> Some (Difflp.objective_value (Rgraph.lp g) r)
            | Error _ -> None)
          Difflp.all_engines
      in
      match objectives with
      | x :: rest -> List.for_all (fun y -> Float.abs (x -. y) < 1e-6) rest
      | [] -> false)

let prop_grar_beats_base_model =
  (* Base retiming's placement is a feasible point of the G-RAR LP, so
     the G-RAR optimum can only be at least as good on the combined
     count + c * EDL measure (evaluated on verified outcomes, with the
     fractional-sharing count replaced by the physical count). *)
  QCheck.Test.make ~name:"G-RAR no worse than base on its objective" ~count:8
    QCheck.(int_bound 40)
    (fun seed ->
      let st = cached_stage seed in
      let c = 1.0 in
      match (run Engine.Grar ~c st, run Engine.Base ~c st) with
      | Ok g, Ok b ->
        let cost (o : Outcome.t) =
          float_of_int o.Outcome.n_slaves
          +. (c *. float_of_int (Outcome.ed_count o))
        in
        cost g.Engine.outcome <= cost b.Engine.outcome +. 1e-6
      | _ -> false)

let prop_deterministic =
  QCheck.Test.make ~name:"retiming is deterministic" ~count:4
    QCheck.(int_bound 40)
    (fun seed ->
      let st = cached_stage seed in
      match (run Engine.Grar ~c:2.0 st, run Engine.Grar ~c:2.0 st) with
      | Ok { Engine.outcome = a; _ }, Ok { Engine.outcome = b; _ } ->
        a.Outcome.n_slaves = b.Outcome.n_slaves
        && Outcome.ed_count a = Outcome.ed_count b
        && a.Outcome.seq_area = b.Outcome.seq_area
      | _ -> false)

let prop_ed_iff_window =
  (* Verified assembly: a master is error-detecting exactly when its
     verified arrival is in the resiliency window. *)
  QCheck.Test.make ~name:"EDL assignment matches verified arrivals" ~count:8
    QCheck.(int_bound 40)
    (fun seed ->
      let st = cached_stage seed in
      match run Engine.Grar ~c:1.0 st with
      | Error _ -> false
      | Ok r ->
        let o = r.Engine.outcome in
        let period = Clocking.period (Stage.clocking r.Engine.stage) in
        Array.for_all
          (fun (s, a) ->
            let ed = List.mem s o.Outcome.ed_sinks in
            if a > period +. 1e-9 then ed else not ed)
          o.Outcome.arrivals)

(* Deterministic unit checks on one known circuit. *)

let test_regions_exclusive () =
  let st = cached_stage 3 in
  let net = Stage.comb st in
  (* every sink in Rn, no source in Rn *)
  Array.iter
    (fun s ->
      Alcotest.(check bool) "sink in Rn" true (Stage.region st s = Stage.Rn))
    (Stage.sinks st);
  Array.iter
    (fun src ->
      Alcotest.(check bool) "source not Rn" true
        (Stage.region st src <> Stage.Rn))
    (Netlist.inputs net)

let test_grar_converts_targets () =
  let st = cached_stage 3 in
  match run Engine.Grar ~c:2.0 st with
  | Error e -> Alcotest.fail (Rar_retime.Error.to_string e)
  | Ok { Engine.outcome; extras = Engine.Retiming { modelled_non_ed; _ }; _ }
    ->
    (* at c = 2 every modelled conversion must be verified non-ED *)
    List.iter
      (fun s ->
        Alcotest.(check bool) "converted master is non-ED" true
          (not (List.mem s outcome.Outcome.ed_sinks)))
      modelled_non_ed
  | Ok _ -> Alcotest.fail "G-RAR reports a retiming"

let test_outcome_area_formula () =
  let st = cached_stage 5 in
  match run Engine.Base ~c:1.5 st with
  | Error e -> Alcotest.fail (Rar_retime.Error.to_string e)
  | Ok r ->
    let o = r.Engine.outcome in
    let latch = (Liberty.latch (Stage.lib st)).Liberty.seq_area in
    let expect =
      (float_of_int (o.Outcome.n_slaves + o.Outcome.n_masters) *. latch)
      +. (1.5 *. float_of_int (Outcome.ed_count o) *. latch)
    in
    Alcotest.(check (float 1e-6)) "seq area formula" expect o.Outcome.seq_area;
    Alcotest.(check (float 1e-6)) "total = seq + comb"
      (o.Outcome.seq_area +. o.Outcome.comb_area)
      o.Outcome.total_area

let test_sizing_noop_when_clean () =
  let st = cached_stage 7 in
  match run Engine.Base ~c:1.0 st with
  | Error e -> Alcotest.fail (Rar_retime.Error.to_string e)
  | Ok r ->
    (* A second sizing pass over a clean result changes nothing. *)
    let limit = Clocking.max_delay (Stage.clocking st) in
    let placements = r.Engine.outcome.Outcome.placements in
    (match
       Rar_retime.Sizing.fix ~deadlines:(fun _ -> limit) r.Engine.stage
         placements
     with
    | Ok st' ->
      Alcotest.(check bool) "same netlist object" true (st' == r.Engine.stage)
    | Error e -> Alcotest.fail (Rar_retime.Error.to_string e))

(* [Stage.make] against the dense first-written classifier
   ([Stage_ref]), bitwise: every sink's class (cut sets in order),
   longest-path bits and window edges in order, and the merged illegal
   edge list in order. Random DAGs and carry-chain pipelines, both
   delay models, both clocking schemes, each at the derived clock and
   with a looser one (fewer window edges, more never-ED sinks). The
   [stage_sinks_pruned] counter splits the compared sinks into those
   the prune bound decided without their cone ([pruned]) and those
   classified by their cone ([coned]). *)
let m_sinks_pruned = Rar_obs.Metrics.counter "stage_sinks_pruned"

let prop_stage_matches_reference ~pruned ~coned =
  QCheck.Test.make ~name:"Stage.make = dense reference classifier" ~count:8
    QCheck.(int_bound 40)
    (fun seed ->
      let net =
        if seed mod 2 = 0 then Generator.generate (small_spec seed)
        else
          Generator.pipeline ~width:6 ~seed:(Printf.sprintf "ref%d" seed)
            ~stages:2 ()
      in
      let p = Suite.prepare net in
      let lib = p.Suite.lib and cc = p.Suite.cc in
      let latch = Liberty.latch lib in
      let bits = Int64.bits_of_float in
      List.for_all
        (fun (model, clock) ->
          let _, p0 =
            Suite.derive_clocking ~clock
              (Sta.analyse lib Sta.Path_based cc.Transform.comb)
          in
          let checked =
            List.filter_map
              (fun scale ->
                let clocking = clock (p0 *. scale) in
                let before = Rar_obs.Metrics.value m_sinks_pruned in
                match Stage.make ~model ~lib ~clocking cc with
                | Error _ -> None
                | Ok st ->
                  let n_pruned =
                    Rar_obs.Metrics.value m_sinks_pruned - before
                  in
                  pruned := !pruned + n_pruned;
                  coned := !coned + Array.length (Stage.sinks st) - n_pruned;
                  let per_sink, illegal =
                    Stage_ref.classify ~sta:(Stage.sta st) ~clocking ~latch
                  in
                  Some
                    (Stage.illegal_edges st = illegal
                    && Array.for_all
                         (fun (s, r) ->
                           Stage.classify st s = r.Stage_ref.cls
                           && bits (Stage.max_path st s) = bits r.Stage_ref.mp
                           &&
                           match r.Stage_ref.cls with
                           | Stage.Target _ ->
                             Stage.window_edges st s = r.Stage_ref.win
                           | Stage.Never_ed | Stage.Always_ed -> true)
                         per_sink))
              [ 1.0; 1.3 ]
          in
          checked <> [] && List.for_all Fun.id checked)
        [ (Sta.Path_based, Clocking.of_p); (Sta.Gate_based, Clocking.of_p);
          (Sta.Path_based, Clocking.of_p3); (Sta.Gate_based, Clocking.of_p3) ])

(* The property under armed metrics, then the coverage check: across
   its cases, both pruned and cone-classified sinks were compared. *)
let test_stage_matches_reference =
  let pruned = ref 0 and coned = ref 0 in
  let name, speed, run =
    QCheck_alcotest.to_alcotest (prop_stage_matches_reference ~pruned ~coned)
  in
  Alcotest.test_case name speed (fun () ->
      pruned := 0;
      coned := 0;
      let armed = Rar_obs.Metrics.enabled () in
      Rar_obs.Metrics.arm ();
      Fun.protect
        ~finally:(fun () -> if not armed then Rar_obs.Metrics.disarm ())
        run;
      Alcotest.(check bool) "pruned sinks compared" true (!pruned > 0);
      Alcotest.(check bool) "cone-classified sinks compared" true (!coned > 0))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_engines_agree_on_objective;
    QCheck_alcotest.to_alcotest prop_grar_beats_base_model;
    QCheck_alcotest.to_alcotest prop_deterministic;
    QCheck_alcotest.to_alcotest prop_ed_iff_window;
    test_stage_matches_reference;
    Alcotest.test_case "regions exclusive" `Quick test_regions_exclusive;
    Alcotest.test_case "grar conversions verified" `Quick
      test_grar_converts_targets;
    Alcotest.test_case "outcome area formula" `Quick test_outcome_area_formula;
    Alcotest.test_case "sizing no-op when clean" `Quick
      test_sizing_noop_when_clean;
  ]
