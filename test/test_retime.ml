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
module Fig4 = Rar_circuits.Fig4
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
   edge list in order. The [stage_sinks_pruned] counter splits the
   compared sinks into those the prune bound decided without their cone
   ([pruned]) and those classified by their cone ([coned]); the latter
   are cut, in sink order, into batches of [Sta.lanes], so a stage's
   cone-classified count gives its full batches and whether its last is
   a single sink or a partial batch. [None] when the stage is
   rejected. *)
let m_sinks_pruned = Rar_obs.Metrics.counter "stage_sinks_pruned"

type counts = {
  pruned : int ref;
  coned : int ref;
  single : int ref;  (* single-sink batches *)
  partial : int ref; (* batches of 2 to [Sta.lanes - 1] sinks *)
  full : int ref;
}

let stage_matches_reference c ~model ~lib ~clocking cc =
  let before = Rar_obs.Metrics.value m_sinks_pruned in
  match Stage.make ~model ~lib ~clocking cc with
  | Error _ -> None
  | Ok st ->
    let n_pruned = Rar_obs.Metrics.value m_sinks_pruned - before in
    let n_coned = Array.length (Stage.sinks st) - n_pruned in
    c.pruned := !(c.pruned) + n_pruned;
    c.coned := !(c.coned) + n_coned;
    c.full := !(c.full) + (n_coned / Sta.lanes);
    (match n_coned mod Sta.lanes with
    | 0 -> ()
    | 1 -> incr c.single
    | _ -> incr c.partial);
    let per_sink, illegal =
      Stage_ref.classify ~sta:(Stage.sta st) ~clocking
        ~latch:(Liberty.latch lib)
    in
    let bits = Int64.bits_of_float in
    Some
      (Stage.illegal_edges st = illegal
      && Array.for_all
           (fun (s, r) ->
             Stage.classify st s = r.Stage_ref.cls
             && bits (Stage.max_path st s) = bits r.Stage_ref.mp
             &&
             match r.Stage_ref.cls with
             | Stage.Target _ -> Stage.window_edges st s = r.Stage_ref.win
             | Stage.Never_ed | Stage.Always_ed -> true)
           per_sink)

(* Random DAGs (even seeds) and carry-chain pipelines (odd), both delay
   models, both clocking schemes, each at the derived clock and with a
   looser one (fewer window edges, more never-ED sinks). *)
let reference_case c seed =
  let net =
    if seed mod 2 = 0 then Generator.generate (small_spec seed)
    else
      Generator.pipeline ~width:6 ~seed:(Printf.sprintf "ref%d" seed)
        ~stages:2 ()
  in
  let p = Suite.prepare net in
  let lib = p.Suite.lib and cc = p.Suite.cc in
  List.for_all
    (fun (model, clock) ->
      let _, p0 =
        Suite.derive_clocking ~clock
          (Sta.analyse lib Sta.Path_based cc.Transform.comb)
      in
      let checked =
        List.filter_map
          (fun scale ->
            stage_matches_reference c ~model ~lib ~clocking:(clock (p0 *. scale))
              cc)
          [ 1.0; 1.3 ]
      in
      checked <> [] && List.for_all Fun.id checked)
    [ (Sta.Path_based, Clocking.of_p); (Sta.Gate_based, Clocking.of_p);
      (Sta.Path_based, Clocking.of_p3); (Sta.Gate_based, Clocking.of_p3) ]

(* The property under armed metrics, plus two fixed cases: the paper's
   Fig. 4 circuit, whose one sink is classified alone, and pipeline
   seed 1, whose stages cut 8 and 6 sinks into batches. Then the
   coverage check: across all of them, both pruned and cone-classified
   sinks were compared, the latter in single-sink, partial and full
   batches. *)
let test_stage_matches_reference =
  let c =
    { pruned = ref 0; coned = ref 0; single = ref 0; partial = ref 0;
      full = ref 0 }
  in
  let name, speed, run =
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"Stage.make = dense reference classifier"
         ~count:8 QCheck.(int_bound 40) (reference_case c))
  in
  Alcotest.test_case name speed (fun () ->
      List.iter (fun r -> r := 0) [ c.pruned; c.coned; c.single; c.partial; c.full ];
      let armed = Rar_obs.Metrics.enabled () in
      Rar_obs.Metrics.arm ();
      Fun.protect
        ~finally:(fun () -> if not armed then Rar_obs.Metrics.disarm ())
        (fun () ->
          run ();
          Alcotest.(check bool) "pipeline seed 1 = reference" true
            (reference_case c 1);
          List.iter
            (fun model ->
              Alcotest.(check (option bool)) "Fig. 4 = reference" (Some true)
                (stage_matches_reference c ~model ~lib:(Fig4.library ())
                   ~clocking:Fig4.clocking (Fig4.circuit ())))
            [ Sta.Path_based; Sta.Gate_based ]);
      Alcotest.(check bool) "pruned sinks compared" true (!(c.pruned) > 0);
      Alcotest.(check bool) "cone-classified sinks compared" true
        (!(c.coned) > 0);
      Alcotest.(check bool) "single-sink batches compared" true
        (!(c.single) > 0);
      Alcotest.(check bool) "partial batches compared" true (!(c.partial) > 0);
      Alcotest.(check bool) "full batches compared" true (!(c.full) > 0))

(* Every Rgraph LP, pinned through the public API: the constraints in
   emission order, the variable count and the bits of each objective
   coefficient (read as the objective of a unit vector, which sums one
   term with zeros and so is exact), as one MD5 per LP. Recorded with
   the list-based builder that the two-pass emitter replaced, so the
   emitter keeps every LP bitwise: the same solve-cache keys, the same
   [lp_latches] and the same tables. The forbidden-edge build forbids
   every target's window edges and the host edge of the first source. *)
let lp_digest lp =
  let b = Buffer.create 4096 in
  Difflp.iter_constraints lp (fun ~u ~v ~bound ->
      Buffer.add_string b (Printf.sprintf "%d %d %d\n" u v bound));
  let r = Array.make (Difflp.var_count lp) 0 in
  for x = 0 to Difflp.var_count lp - 1 do
    r.(x) <- 1;
    Buffer.add_string b
      (Printf.sprintf "%Lx\n"
         (Int64.bits_of_float (Difflp.objective_value lp r)));
    r.(x) <- 0
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

type lp_build = Base | Grar of float | Forbidden

let lp_golden =
  [
    ("s1196", Base, 908, 4077, "4e4b8ea18c233290b0bfb704c7adb915");
    ("s1196", Grar 0.5, 911, 4290, "1edd384d53698491536aa30e88cf4005");
    ("s1196", Grar 1.0, 911, 4290, "52f09e55711896a51316d2c984d3a0f9");
    ("s1196", Grar 2.0, 911, 4290, "7f8b3527222afc8e2b034f5905e512c2");
    ("s1423", Base, 1271, 5321, "cbff5c96ebc7bb9dbbff90810c8f866e");
    ("s1423", Grar 0.5, 1311, 7590, "0e4c6dcb2f18117a53dc336c298d12db");
    ("s1423", Grar 1.0, 1311, 7590, "76b8b2d561e43b6fa810c33a6fc5ce0c");
    ("s1423", Grar 2.0, 1311, 7590, "2849eeffa32aee4ec8491292525d3424");
    ("s1423", Forbidden, 1271, 11881, "78f8fb8d58d7a3242dfb40e81a3c3fd5");
    ("s5378", Base, 2760, 11553, "672d710f3e41777cae477e5e225124d2");
    ("s5378", Grar 0.5, 2809, 19244, "a69b0cf7169bc61e32f94fd3e77e52c1");
    ("s5378", Grar 1.0, 2809, 19244, "9260f4bf913ddfd66335e22aa6de4d64");
    ("s5378", Grar 2.0, 2809, 19244, "1a61f3bddd08cfd36efc3a65aae2e856");
    ("pipe4", Base, 1401, 5457, "6559798b4d07666229e9d2e825c3c5a3");
    ("pipe4", Grar 0.5, 1453, 5821, "ff09ae83f93be74a76ad2e4be196bfd2");
    ("pipe4", Grar 1.0, 1453, 5821, "b2fbd551183da54f6df1d35b002c7855");
    ("pipe4", Grar 2.0, 1453, 5821, "4d3d5bb2badd3390503469feaa61f173");
  ]

let test_lp_golden () =
  let stages = Hashtbl.create 4 in
  let stage circuit =
    match Hashtbl.find_opt stages circuit with
    | Some st -> st
    | None ->
      let p = Result.get_ok (Suite.load circuit) in
      let st =
        Result.get_ok
          (Stage.make ~lib:p.Suite.lib ~clocking:p.Suite.clocking p.Suite.cc)
      in
      Hashtbl.replace stages circuit st;
      st
  in
  let forbidden st =
    let src = (Netlist.inputs (Stage.comb st)).(0) in
    (src, src)
    :: List.concat_map
         (fun s ->
           match Stage.classify st s with
           | Stage.Target _ -> Stage.window_edges st s
           | Stage.Never_ed | Stage.Always_ed -> [])
         (Array.to_list (Stage.sinks st))
  in
  List.iter
    (fun (circuit, build, vars, m, md5) ->
      let st = stage circuit in
      let g, what =
        match build with
        | Base -> (Rgraph.build ~bias_early:true st, "base")
        | Grar c ->
          (Rgraph.build ~edl_overhead:c st, Printf.sprintf "G-RAR c=%g" c)
        | Forbidden ->
          ( Rgraph.build ~forbidden_edges:(forbidden st) ~bias_early:true st,
            "forbidden edges" )
      in
      let lp = Rgraph.lp g and label = circuit ^ " " ^ what in
      Alcotest.(check int) (label ^ ": variables") vars (Difflp.var_count lp);
      Alcotest.(check int) (label ^ ": constraints") m
        (Difflp.constraint_count lp);
      Alcotest.(check string) (label ^ ": LP digest") md5 (lp_digest lp))
    lp_golden

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
    Alcotest.test_case "every Rgraph LP bitwise pinned" `Quick test_lp_golden;
  ]
