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
    (* Checking a clean result again returns the stage it was given. *)
    let limit = Clocking.max_delay (Stage.clocking st) in
    let placements = r.Engine.outcome.Outcome.placements in
    (match
       Rar_retime.Sizing.fix ~deadlines:(fun _ -> limit) r.Engine.stage
         placements
     with
    | Ok st' ->
      Alcotest.(check bool) "same netlist object" true (st' == r.Engine.stage)
    | Error e -> Alcotest.fail (Rar_retime.Error.to_string e))

(* The failure path no workload reaches: the same clean result under
   an unmeetable deadline is a typed rejection that counts every sink
   and leaves the stage as it was. *)
let test_sizing_rejects_missed_deadline () =
  let st = cached_stage 7 in
  match run Engine.Base ~c:1.0 st with
  | Error e -> Alcotest.fail (Rar_retime.Error.to_string e)
  | Ok r ->
    let stage = r.Engine.stage in
    let digest = Netlist.digest (Stage.comb stage) in
    let placements = r.Engine.outcome.Outcome.placements in
    (match Rar_retime.Sizing.fix ~deadlines:(fun _ -> 0.) stage placements with
    | Error (Rar_retime.Error.Timing_violations { count; _ }) ->
      Alcotest.(check int) "every sink late"
        (Array.length (Stage.sinks stage))
        count
    | Error e ->
      Alcotest.fail
        ("expected Timing_violations, got " ^ Rar_retime.Error.to_string e)
    | Ok _ -> Alcotest.fail "an unmeetable deadline must be rejected");
    Alcotest.(check string) "netlist unchanged" digest
      (Netlist.digest (Stage.comb stage));
    let again = Outcome.assemble ~c:1.0 stage placements in
    Alcotest.(check bool) "arrivals unchanged, bitwise" true
      (Array.for_all2
         (fun (s, a) (s', a') ->
           s = s' && Int64.bits_of_float a = Int64.bits_of_float a')
         r.Engine.outcome.Outcome.arrivals again.Outcome.arrivals)

(* The edge [(u, v)] of each fanin pin position of [net]. *)
let pin_edges net =
  let cv = Netlist.compact net in
  let n = Netlist.Compact.n cv in
  let edges = Array.make (Netlist.Compact.fanin_lo cv n) (0, 0) in
  for v = 0 to n - 1 do
    for p = Netlist.Compact.fanin_lo cv v to Netlist.Compact.fanin_hi cv v - 1
    do
      edges.(p) <- (Netlist.Compact.fanin cv p, v)
    done
  done;
  edges

(* The edges of the stage's illegal pins, as an ascending set; [None]
   unless the pins are strictly ascending. *)
let illegal_edges st =
  let edges = pin_edges (Stage.comb st) in
  let pins = Array.to_list (Stage.illegal_pins st) in
  if List.sort_uniq Int.compare pins <> pins then None
  else Some (List.sort_uniq compare (List.map (Array.get edges) pins))

(* [Stage.make] against the dense first-written classifier
   ([Stage_ref]), bitwise: every sink's class (cut sets in order),
   longest-path bits and window pins in ascending order, and the
   stage's illegal edges as a set. The [stage_sinks_pruned] counter splits the
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
    let edges = pin_edges (Stage.comb st) in
    Some
      (illegal_edges st = Some illegal
      && Array.for_all
           (fun (s, r) ->
             Stage.classify st s = r.Stage_ref.cls
             && bits (Stage.max_path st s) = bits r.Stage_ref.mp
             &&
             match r.Stage_ref.cls with
             | Stage.Target _ | Stage.Never_ed ->
               (* the reference lists its window descending *)
               List.map (Array.get edges)
                 (Array.to_list (Stage.window_pins st s))
               = List.rev r.Stage_ref.win
             | Stage.Always_ed -> true)
           per_sink)

(* Random DAGs (even seeds) and carry-chain pipelines (odd), both delay
   models, both clocking schemes, each at the derived clock and with a
   looser one (fewer window edges, more never-ED sinks). [check] is
   [None] on a rejected stage; a case holds when some stage was checked
   and every check held. *)
let reference_case check seed =
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
          (fun scale -> check ~model ~lib ~clocking:(clock (p0 *. scale)) cc)
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
         ~count:8 QCheck.(int_bound 40)
         (reference_case (stage_matches_reference c)))
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
            (reference_case (stage_matches_reference c) 1);
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

(* Each no-latch position once. On the reference cases' stages, a
   G-RAR LP and a VL LP that forbids the window pins of a random subset
   of the targets end in one constraint per distinct edge among the
   reference's illegal edges and the subset's window edges, in fanin
   CSR order (heads ascending, then each driver's first pin), then one
   host constraint per source with a forbidden edge, in source order.
   Before them the LP holds no constraint of either form but the V_m
   bounds, in node order. Closure returns the same [r] for the LP and
   for a copy with the per-sink lists the list-based builder emitted
   appended: every sink's illegal edges, and each forbidden sink's
   window edges with the host edge of every source among them. *)
type no_latch_cover = {
  illegal_seen : int ref; (* LPs with an illegal edge *)
  hosts_seen : int ref;   (* LPs with a host constraint *)
  vl_solved : int ref;    (* feasible VL LPs compared with their copy *)
}

let no_latch_once cov ~rng ~model ~lib ~clocking cc =
  match Stage.make ~model ~lib ~clocking cc with
  | Error _ -> None
  | Ok st ->
    let net = Stage.comb st in
    let n = Netlist.node_count net in
    let per_sink, illegal =
      Stage_ref.classify ~sta:(Stage.sta st) ~clocking
        ~latch:(Liberty.latch lib)
    in
    let chosen =
      List.filter
        (fun (_, r) ->
          match r.Stage_ref.cls with
          | Stage.Target _ -> Random.State.bool rng
          | Stage.Never_ed | Stage.Always_ed -> false)
        (Array.to_list per_sink)
    in
    let forbidden = Array.make (Array.length (pin_edges net)) false in
    List.iter
      (fun (s, _) ->
        Array.iter (fun p -> forbidden.(p) <- true) (Stage.window_pins st s))
      chosen;
    let is_input u = Netlist.kind net u = Netlist.Input in
    let first_pin (u, v) =
      let fins = Netlist.fanins net v in
      let rec go i = if fins.(i) = u then i else go (i + 1) in
      go 0
    in
    let no_latch (u, v) = if u = v then (u + 1, 0, -1) else (v + 1, u + 1, 0) in
    let expected window =
      List.map no_latch
        (List.sort
           (fun a b -> compare (snd a, first_pin a) (snd b, first_pin b))
           (List.sort_uniq compare (illegal @ window)))
      @ List.filter_map
          (fun u ->
            if List.exists (fun (w, _) -> w = u) window then
              Some (no_latch (u, u))
            else None)
          (Array.to_list (Netlist.inputs net))
    in
    let v_m =
      List.filter_map
        (fun v ->
          if Stage.region st v = Stage.Rm then Some (v + 1, 0, -1) else None)
        (List.init n Fun.id)
    in
    let reversed_edge (a, b, w) =
      w = 0 && a >= 1 && a <= n && b >= 1 && b <= n
      && Array.mem (b - 1) (Netlist.fanins net (a - 1))
    in
    let constraints lp =
      let acc = ref [] in
      Difflp.iter_constraints lp (fun ~u ~v ~bound ->
          acc := (u, v, bound) :: !acc);
      List.rev !acc
    in
    let once lp expected =
      let cons = constraints lp in
      let m = List.length cons - List.length expected in
      let before = List.filteri (fun i _ -> i < m) cons in
      m >= 0
      && List.filteri (fun i _ -> i >= m) cons = expected
      && (not (List.exists reversed_edge before))
      && List.filter (fun (_, b, w) -> b = 0 && w = -1) before = v_m
    in
    (* The LP again, through the public API, with [dups] appended. *)
    let with_duplicates lp dups =
      let vars = Difflp.var_count lp in
      let copy = Difflp.create ~n:vars in
      List.iter (fun (u, v, bound) -> Difflp.add_constraint copy ~u ~v ~bound)
        (constraints lp @ dups);
      let unit = Array.make vars 0 in
      Difflp.add_objectives copy
        (Array.init vars (fun x ->
             unit.(x) <- 1;
             let a = Difflp.objective_value lp unit in
             unit.(x) <- 0;
             a));
      copy
    in
    let solve lp = Difflp.solve ~engine:Difflp.Closure lp ~reference:0 in
    let same lp dups =
      match (solve lp, solve (with_duplicates lp dups)) with
      | Ok r, Ok r' -> r = r'
      | Error _, Error _ -> true
      | Ok _, Error _ | Error _, Ok _ -> false
    in
    let per_sink_illegal =
      List.concat_map (fun (_, r) -> List.map no_latch r.Stage_ref.ill)
        (Array.to_list per_sink)
    in
    let per_sink_window =
      List.concat_map
        (fun (_, r) ->
          List.map no_latch
            (List.sort_uniq compare
               (List.concat_map
                  (fun (u, v) ->
                    if is_input u then [ (u, v); (u, u) ] else [ (u, v) ])
                  r.Stage_ref.win)))
        chosen
    in
    let window = List.concat_map (fun (_, r) -> r.Stage_ref.win) chosen in
    let c = List.nth [ 0.5; 1.0; 2.0 ] (Random.State.int rng 3) in
    let grar = Rgraph.lp (Rgraph.build ~edl_overhead:c st) in
    let vl =
      Rgraph.lp (Rgraph.build ~forbidden_pins:forbidden ~bias_early:true st)
    in
    if illegal <> [] then incr cov.illegal_seen;
    if List.exists (fun (u, _) -> is_input u) window then incr cov.hosts_seen;
    if Result.is_ok (solve vl) then incr cov.vl_solved;
    Some
      (once grar (expected [])
      && once vl (expected window)
      && same grar per_sink_illegal
      && same vl (per_sink_illegal @ per_sink_window))

let test_no_latch_once =
  let cov =
    { illegal_seen = ref 0; hosts_seen = ref 0; vl_solved = ref 0 }
  in
  let case seed =
    reference_case
      (no_latch_once cov ~rng:(Random.State.make [| seed |]))
      seed
  in
  let name, speed, run =
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"each no-latch edge once" ~count:8
         QCheck.(int_bound 40) case)
  in
  Alcotest.test_case name speed (fun () ->
      (* Closure's answer is the one compared: pin a clean fault
         configuration, so no injected failure hands a solve to the
         fallback engine. *)
      Rar_resilience.Faults.disable ();
      Fun.protect ~finally:Rar_resilience.Faults.use_env @@ fun () ->
      List.iter (fun r -> r := 0)
        [ cov.illegal_seen; cov.hosts_seen; cov.vl_solved ];
      run ();
      Alcotest.(check bool) "pipeline seed 1" true (case 1);
      let seen what r = Alcotest.(check bool) what true (!r > 0) in
      seen "illegal edges emitted" cov.illegal_seen;
      seen "host constraints emitted" cov.hosts_seen;
      seen "feasible VL LPs compared" cov.vl_solved)

(* Every Rgraph LP, pinned through the public API: the constraints in
   emission order, the variable count and the bits of each objective
   coefficient (read as the objective of a unit vector, which sums one
   term with zeros and so is exact), as one MD5 per LP. A builder
   change that moves a constraint, its order or a coefficient bit moves
   a digest, and with it the solve-cache keys; recorded with the
   no-latch constraints in fanin CSR order, each edge once. The
   forbidden-pin build forbids every target's window pins. *)
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
    ("s1196", Base, 908, 4077, "706e1f6d8b9ddc06d1de0dac56db0b1a");
    ("s1196", Grar 0.5, 911, 4290, "01249eb8b8a4ce55fa1877bf105dc562");
    ("s1196", Grar 1.0, 911, 4290, "030b0cecfd6336c914a9e86b51c41195");
    ("s1196", Grar 2.0, 911, 4290, "1f9d902c627d10cf24e495466c2a3e9a");
    ("s1423", Base, 1271, 5321, "24a997611ee1b017d30b75214a9756e7");
    ("s1423", Grar 0.5, 1311, 7590, "fa039c9f503802afa9cfeb4d7485453e");
    ("s1423", Grar 1.0, 1311, 7590, "d85b3b92c9c906c3ee6c1b70cb6ed337");
    ("s1423", Grar 2.0, 1311, 7590, "f106ad2f97b529562383398c572ab91d");
    ("s1423", Forbidden, 1271, 5814, "1328b66625151f1e24154125a730a8e5");
    ("s5378", Base, 2760, 11553, "8ab179fa8fa809b5c4b85899211602a5");
    ("s5378", Grar 0.5, 2809, 19244, "dad4bb5e9618182a0f7dbd82dfaf3813");
    ("s5378", Grar 1.0, 2809, 19244, "98b84cd7a6553ae3645b2890465ae54e");
    ("s5378", Grar 2.0, 2809, 19244, "e505e412b0983ea652cf5c79782cebdb");
    ("pipe4", Base, 1401, 5457, "105597a43290854034d6fd66d8b64ac4");
    ("pipe4", Grar 0.5, 1453, 5821, "73f36224a54183ee7c7961064fe127ee");
    ("pipe4", Grar 1.0, 1453, 5821, "6d18aa5a003f2ded9df3bdae33869118");
    ("pipe4", Grar 2.0, 1453, 5821, "c3a327a27b5b9da6cea4398b013ccc07");
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
    let marks = Array.make (Array.length (pin_edges (Stage.comb st))) false in
    Array.iter
      (fun s ->
        match Stage.classify st s with
        | Stage.Target _ ->
          Array.iter (fun p -> marks.(p) <- true) (Stage.window_pins st s)
        | Stage.Never_ed | Stage.Always_ed -> ())
      (Stage.sinks st);
    marks
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
          ( Rgraph.build ~forbidden_pins:(forbidden st) ~bias_early:true st,
            "forbidden pins" )
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
    test_no_latch_once;
    Alcotest.test_case "regions exclusive" `Quick test_regions_exclusive;
    Alcotest.test_case "grar conversions verified" `Quick
      test_grar_converts_targets;
    Alcotest.test_case "outcome area formula" `Quick test_outcome_area_formula;
    Alcotest.test_case "sizing no-op when clean" `Quick
      test_sizing_noop_when_clean;
    Alcotest.test_case "sizing rejects a missed deadline" `Quick
      test_sizing_rejects_missed_deadline;
    Alcotest.test_case "every Rgraph LP bitwise pinned" `Quick test_lp_golden;
  ]
