(* Engine-registry tests: one legality property swept over every
   registered engine (replacing the per-engine copies the suites used
   to carry), plus registry/config unit checks.

   The legality sweep is engine-agnostic: whatever produced the
   outcome, the materialised placement must put exactly one slave on
   every master-to-master path, avoid every position Constraint (6)/(7)
   rules out, and report an ED set consistent with the verified
   arrivals. *)

module Netlist = Rar_netlist.Netlist
module Transform = Rar_netlist.Transform
module Clocking = Rar_sta.Clocking
module Spec = Rar_circuits.Spec
module Generator = Rar_circuits.Generator
module Fig4 = Rar_circuits.Fig4
module Suite = Rar_circuits.Suite
module Stage = Rar_retime.Stage
module Outcome = Rar_retime.Outcome
module Error = Rar_retime.Error
module Engine = Rar_engine
module Json = Rar_util.Json
module Faults = Rar_resilience.Faults

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

let cached_prepared =
  let tbl = Hashtbl.create 8 in
  fun seed ->
    match Hashtbl.find_opt tbl seed with
    | Some p -> p
    | None ->
      let p = Suite.prepare (Generator.generate (small_spec seed)) in
      Hashtbl.replace tbl seed p;
      p

(* Every master-to-master (source-to-sink) path of the materialised
   stage must cross exactly one slave latch: a min/max slave-count DP
   over the staged netlist. Memoised DFS rather than [topo_comb],
   because that order lets a gate read a slave that has not been
   ordered yet (sequential fanins are not ordering constraints). *)
let one_slave_per_path staged =
  let memo = Array.make (Netlist.node_count staged) None in
  let rec count v =
    match memo.(v) with
    | Some r -> r
    | None ->
      let r =
        match Netlist.kind staged v with
        | Netlist.Input -> (0, 0)
        | Netlist.Seq _ ->
          let l, h = count (Netlist.fanins staged v).(0) in
          (l + 1, h + 1)
        | Netlist.Gate _ | Netlist.Output ->
          Array.fold_left
            (fun (l, h) u ->
              let l', h' = count u in
              (min l l', max h h'))
            (max_int, min_int)
            (Netlist.fanins staged v)
      in
      memo.(v) <- Some r;
      r
  in
  Array.for_all (fun o -> count o = (1, 1)) (Netlist.outputs staged)

(* No slave sits on a position the stage analysis proved illegal — the
   per-edge form of Constraints (6)/(7): no illegal pin is latched. *)
let placements_legal stage placements =
  let index = Transform.pin_index (Stage.comb stage) placements in
  Array.for_all (fun p -> index.(p) < 0) (Stage.illegal_pins stage)

(* ED set vs verified arrivals: a late master must always be flagged
   error-detecting (the safety direction, every engine); engines that
   derive the set from arrivals rather than overriding it must match
   exactly. *)
let ed_consistent spec (o : Outcome.t) period =
  let derived = match spec with
    | Engine.Initial | Engine.Base | Engine.Grar -> true
    | Engine.Vl _ | Engine.Movable -> false
  in
  Array.for_all
    (fun (s, a) ->
      let ed = List.mem s o.Outcome.ed_sinks in
      let late = a > period +. 1e-9 in
      if derived then ed = late else (not late) || ed)
    o.Outcome.arrivals

(* A base or G-RAR run charges no EDL to a sink its LP priced
   non-error-detecting: the tail held that sink to the period. *)
let modelled_non_ed_kept spec (r : Engine.result) =
  match (spec, r.Engine.extras) with
  | (Engine.Base | Engine.Grar), Engine.Retiming { modelled_non_ed; _ } ->
    List.for_all
      (fun s -> not (List.mem s r.Engine.outcome.Outcome.ed_sinks))
      modelled_non_ed
  | (Engine.Base | Engine.Grar), _ -> false
  | (Engine.Initial | Engine.Vl _ | Engine.Movable), _ -> true

let result_legal spec stage (r : Engine.result) =
  let o = r.Engine.outcome in
  let period = Clocking.period (Stage.clocking r.Engine.stage) in
  let staged =
    Transform.apply_retiming (Stage.cc r.Engine.stage) o.Outcome.placements
  in
  (* The un-retimed design may sit on positions retiming exists to fix,
     so the timing-cleanliness and Constraint (6)/(7) checks apply to
     the retiming engines only. Every engine but the movable search
     verifies its outcome on the very stage it was given: the LP tail
     checks deadlines and leaves the stage as it is. *)
  (spec = Engine.Initial
  || o.Outcome.violations = []
     && placements_legal r.Engine.stage o.Outcome.placements)
  && (spec = Engine.Movable || r.Engine.stage == stage)
  && modelled_non_ed_kept spec r
  && o.Outcome.n_slaves = List.length o.Outcome.placements
  && ed_consistent spec o period
  && one_slave_per_path staged

(* The property's designs: random layered DAGs, carry-chain pipelines
   and the paper's Fig. 4 circuit. *)
type design = Random of int | Pipeline of int | Fig4_circuit

let design_name = function
  | Random seed -> Printf.sprintf "random %d" seed
  | Pipeline seed -> Printf.sprintf "pipeline %d" seed
  | Fig4_circuit -> "Fig. 4"

let cached_pipeline =
  let tbl = Hashtbl.create 8 in
  fun seed ->
    match Hashtbl.find_opt tbl seed with
    | Some p -> p
    | None ->
      let p =
        Suite.prepare
          (Generator.pipeline ~width:(4 + (seed mod 5))
             ~seed:(Printf.sprintf "prop%d" seed)
             ~stages:(2 + (seed mod 2)) ())
      in
      Hashtbl.replace tbl seed p;
      p

(* Fig. 4 has no two-phase source, so the movable engine rejects its
   stage (test_movable_requires_source covers that) and the property
   runs every other engine on it. *)
let design_stage design model =
  let ok = function
    | Ok st -> st
    | Error e -> QCheck.Test.fail_reportf "stage: %s" (Error.to_string e)
  in
  match design with
  | Random seed -> ok (Engine.stage_of ~model (cached_prepared seed))
  | Pipeline seed -> ok (Engine.stage_of ~model (cached_pipeline seed))
  | Fig4_circuit ->
    ok
      (Stage.make ~model ~lib:(Fig4.library ()) ~clocking:Fig4.clocking
         (Fig4.circuit ()))

let arb_case =
  let open QCheck.Gen in
  let design =
    frequency
      [ (3, map (fun s -> Random s) (int_bound 40));
        (2, map (fun s -> Pipeline s) (int_bound 20));
        (1, return Fig4_circuit) ]
  in
  QCheck.make
    ~print:(fun (d, model, c) ->
      Printf.sprintf "%s, %s, c = %g" (design_name d)
        (Engine.model_name model) c)
    (triple design
       (oneofl [ Rar_sta.Sta.Path_based; Rar_sta.Sta.Gate_based ])
       (oneofl [ 0.25; 0.5; 1.0; 2.0; 3.0 ]))

let prop_registry_legal =
  QCheck.Test.make ~name:"every registered engine is legal and timing-clean"
    ~count:60 arb_case
    (fun (design, model, c) ->
      let stage = design_stage design model in
      List.for_all
        (fun spec ->
          let cfg = Engine.config ~model ~c ~movable_moves:2 spec in
          match Engine.run cfg stage with
          | Ok r -> result_legal spec stage r
          | Error e ->
            QCheck.Test.fail_reportf "%s failed: %s" (Engine.name spec)
              (Error.to_string e))
        (match design with
        | Fig4_circuit -> List.filter (( <> ) Engine.Movable) Engine.all
        | Random _ | Pipeline _ -> Engine.all))

(* Registry unit checks. *)

let test_registry_names () =
  List.iter
    (fun spec ->
      Alcotest.(check bool)
        (Engine.name spec ^ " round-trips")
        true
        (Engine.of_name (Engine.name spec) = Some spec))
    Engine.all;
  Alcotest.(check bool) "unknown name rejected" true
    (Engine.of_name "no-such-engine" = None);
  let names = List.map Engine.name Engine.all in
  Alcotest.(check int) "names distinct"
    (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun spec ->
      Alcotest.(check bool)
        (Engine.name spec ^ " tabulated subset of all")
        true (List.mem spec Engine.all))
    Engine.tabulated

let test_config_key_distinguishes () =
  let base = Engine.config ~c:1.0 Engine.Grar in
  let keys =
    List.map Engine.config_key
      [
        base;
        Engine.config ~c:2.0 Engine.Grar;
        Engine.config ~c:1.0000001 Engine.Grar;
        Engine.config ~model:Rar_sta.Sta.Gate_based ~c:1.0 Engine.Grar;
        Engine.config ~solver:Rar_flow.Difflp.Network_simplex ~c:1.0
          Engine.Grar;
        Engine.config ~solver:Rar_flow.Difflp.Closure ~c:1.0 Engine.Grar;
        Engine.config ~c:1.0 ~post_swap:false Engine.Grar;
        Engine.config ~c:1.0 ~movable_moves:3 Engine.Grar;
        Engine.config ~c:1.0 Engine.Base;
      ]
  in
  Alcotest.(check int) "every config field keys differently"
    (List.length keys)
    (List.length (List.sort_uniq compare keys))

(* A bare [Stage.make] has no two-phase source, so the movable engine
   rejects it; [Engine.stage_of] always attaches one. *)
let test_movable_requires_source () =
  let p = cached_prepared 3 in
  let cfg = Engine.config ~c:0.5 ~movable_moves:1 Engine.Movable in
  let ok_stage = function
    | Ok st -> st
    | Error e -> Alcotest.fail (Error.to_string e)
  in
  let bare =
    ok_stage (Stage.make ~lib:p.Suite.lib ~clocking:p.Suite.clocking p.Suite.cc)
  in
  (match Engine.run cfg bare with
  | Error (Error.Invalid_input _) -> ()
  | Error e ->
    Alcotest.fail ("expected Invalid_input, got " ^ Error.to_string e)
  | Ok _ -> Alcotest.fail "movable must reject a stage without its source");
  match Engine.run cfg (ok_stage (Engine.stage_of p)) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("movable on stage_of: " ^ Error.to_string e)

(* A negative or non-finite EDL overhead is an input error, not an LP
   the solver is left to reject (or, for c < 0, to solve with a
   reward per error-detecting latch). *)
let test_invalid_c () =
  let p = cached_prepared 3 in
  List.iter
    (fun c ->
      match Engine.run_prepared (Engine.config ~c Engine.Grar) p with
      | Error (Error.Invalid_input _) -> ()
      | Error e ->
        Alcotest.failf "c = %g: expected Invalid_input, got %s" c
          (Error.to_string e)
      | Ok _ -> Alcotest.failf "c = %g: expected Invalid_input" c)
    [ -0.5; Float.nan; Float.infinity ]

let test_unknown_circuit () =
  match Engine.load_and_run (Engine.config ~c:0.5 Engine.Base) "nosuch" with
  | Error (Error.Unknown_circuit _) -> ()
  | Error e ->
    Alcotest.fail ("expected Unknown_circuit, got " ^ Error.to_string e)
  | Ok _ -> Alcotest.fail "expected load failure"

let test_result_json_shape () =
  let p = cached_prepared 5 in
  let cfg = Engine.config ~c:1.0 Engine.Grar in
  match Engine.run_prepared cfg p with
  | Error e -> Alcotest.fail (Error.to_string e)
  | Ok r ->
    let j = Engine.result_json ~circuit:"prop5" cfg r in
    (match Rar_util.Json.of_string (Rar_util.Json.to_string j) with
    | Error e -> Alcotest.fail ("result JSON does not parse: " ^ e)
    | Ok j' ->
      let str k =
        match Rar_util.Json.member k j' with
        | Some (Rar_util.Json.String s) -> Some s
        | _ -> None
      in
      Alcotest.(check (option string)) "schema" (Some "rar-run/1")
        (str "schema");
      Alcotest.(check (option string)) "approach" (Some "grar")
        (str "approach");
      Alcotest.(check (option string)) "circuit" (Some "prop5")
        (str "circuit");
      Alcotest.(check bool) "has outcome object" true
        (match Rar_util.Json.member "outcome" j' with
        | Some (Rar_util.Json.Obj _) -> true
        | _ -> false))

(* The default G-RAR solve is closure's minimal min cut: the retiming
   vector and the rendered result must not depend on the pool size. *)
let test_closure_jobs_identical () =
  let p = cached_prepared 3 in
  let cfg = Engine.config ~c:1.0 Engine.Grar in
  Fun.protect ~finally:(fun () -> Rar_util.Pool.set_jobs 1) @@ fun () ->
  let at_jobs j =
    Rar_util.Pool.set_jobs j;
    match Engine.run_prepared cfg p with
    | Error e -> Alcotest.failf "jobs=%d: %s" j (Error.to_string e)
    | Ok r ->
      let r_vec =
        match r.Engine.extras with
        | Engine.Retiming { r; _ } -> r
        | _ -> Alcotest.fail "G-RAR reports a retiming"
      in
      ( r_vec,
        Rar_util.Json.to_string
          (Engine.result_json ~circuit:"prop" cfg { r with Engine.wall_s = 0. })
      )
  in
  let r1, j1 = at_jobs 1 in
  List.iter
    (fun j ->
      let rj, jj = at_jobs j in
      Alcotest.(check (array int)) (Printf.sprintf "r at jobs=%d" j) r1 rj;
      Alcotest.(check string) (Printf.sprintf "rar-run/1 at jobs=%d" j) j1 jj)
    [ 2; 4 ]

(* One MD5 per circuit and engine over its rar-run/1 documents at
   c = 0.5, 1 and 2 with [wall_s] removed, recorded with faults off
   while base, G-RAR, VL and movable still had their own entry points
   and result records: pins each engine's outcome, extras and ED-sink
   names. *)
let run_digests =
  [
    ("s1196", "initial", "2bba1f63c3f0d61f78b0b4f7377a4659");
    ("s1196", "base", "94a37e4056cc995e3474410f42dd4906");
    ("s1196", "nvl", "a0072c3b2dc573bc7cb66142e7d350ba");
    ("s1196", "evl", "abfe1271d1ae346bf6c08f5958198d31");
    ("s1196", "rvl", "79c5064dff053e175c70f1528d09b057");
    ("s1196", "movable", "0d651042dca42faf50936fdcc761259a");
    ("s1196", "grar", "06966392d3f49889a78ca5c1db4b265a");
    ("s1423", "initial", "54df6aa7edfab00b53a141d2ae8ba901");
    ("s1423", "base", "9f249ac22562e50cf19605435ae60d18");
    ("s1423", "nvl", "b3665784d454f4182120119088dd3946");
    ("s1423", "evl", "405a8f6d9e2978de2199d27c46f4827c");
    ("s1423", "rvl", "df87cc17cf1895d571cf8f7af7023761");
    ("s1423", "movable", "ea3a4e7fb58f67fadd1aec38bb597886");
    ("s1423", "grar", "f9eb2d40a763ef3ac354bf9179ed134f");
  ]

let run_digest circuit spec =
  let p = Result.get_ok (Suite.load circuit) in
  List.map
    (fun c ->
      let cfg = Engine.config ~c spec in
      match Engine.run_prepared cfg p with
      | Error e -> Alcotest.fail (Error.to_string e)
      | Ok r -> (
        match Engine.result_json ~circuit cfg r with
        | Json.Obj kvs ->
          Json.to_string
            (Json.Obj (List.filter (fun (k, _) -> k <> "wall_s") kvs))
        | _ -> Alcotest.fail "rar-run/1 is an object"))
    [ 0.5; 1.0; 2.0 ]
  |> String.concat "\n" |> Digest.string |> Digest.to_hex

let test_run_digests () =
  Faults.disable ();
  Fun.protect ~finally:Faults.use_env @@ fun () ->
  List.iter
    (fun (circuit, name, want) ->
      let spec = Option.get (Engine.of_name name) in
      Alcotest.(check string)
        (circuit ^ " " ^ name)
        want (run_digest circuit spec))
    run_digests

(* The latch-aware timing every engine ends with, pinned bit for bit:
   per circuit and engine at c = 1, an MD5 over the bit patterns of
   the verified sink arrivals, the sorted error-detecting sinks and the
   slave count; per circuit, the bits of the un-retimed arrival at
   every sink; per suite circuit, the Table I NCE count. Recorded with
   faults off. *)
let arrival_digests =
  [
    ("s1196", "initial", "988f808a1422d2aabf837fdbf16d2809");
    ("s1196", "base", "9b753d429289876c2d99fb6e8ddabb67");
    ("s1196", "nvl", "d211f9a47cb1799d3f1a0872c944c1cd");
    ("s1196", "evl", "9b753d429289876c2d99fb6e8ddabb67");
    ("s1196", "rvl", "9b753d429289876c2d99fb6e8ddabb67");
    ("s1196", "movable", "9b753d429289876c2d99fb6e8ddabb67");
    ("s1196", "grar", "9b753d429289876c2d99fb6e8ddabb67");
    ("s1423", "initial", "b4c77b33c3844017ce7ab4d8b323e72d");
    ("s1423", "base", "0320f383c7cdf4499d651ffaf383a485");
    ("s1423", "nvl", "813c11269112efe3560684271a20467f");
    ("s1423", "evl", "0320f383c7cdf4499d651ffaf383a485");
    ("s1423", "rvl", "0320f383c7cdf4499d651ffaf383a485");
    ("s1423", "movable", "5215949e1151b7fff3112301da336024");
    ("s1423", "grar", "b039b00479e62f52cf5435a3e945706f");
    ("s5378", "initial", "779775ad0c7c7352a474efd096c07b21");
    ("s5378", "base", "9cd63b3514c4d9dc1cbd96124e2eb567");
    ("s5378", "nvl", "7c6d552128a5da10bc73fb9c696a5c69");
    ("s5378", "evl", "9cd63b3514c4d9dc1cbd96124e2eb567");
    ("s5378", "rvl", "9cd63b3514c4d9dc1cbd96124e2eb567");
    ("s5378", "movable", "9cd63b3514c4d9dc1cbd96124e2eb567");
    ("s5378", "grar", "f83133f307cb4eb78b1650df4b8c28ff");
    ("s9234", "initial", "a7ed0b6af593513a4c049d468042b93e");
    ("s9234", "base", "87ce74a3d0ccbf4a439486c2abbedf2f");
    ("s9234", "nvl", "000522f803daeb2e581e9434b2262505");
    ("s9234", "evl", "87ce74a3d0ccbf4a439486c2abbedf2f");
    ("s9234", "rvl", "87ce74a3d0ccbf4a439486c2abbedf2f");
    ("s9234", "movable", "87ce74a3d0ccbf4a439486c2abbedf2f");
    ("s9234", "grar", "87ce74a3d0ccbf4a439486c2abbedf2f");
  ]

let initial_arrival_digests =
  [
    ("s1196", "73f89d2a37dd1ebb9b41e6506a225f63");
    ("s1423", "0a6f88d01416669442344f4235fb11f2");
    ("s5378", "923078f77918c337fb2dee299dea0a48");
    ("s9234", "4264bdd3d62eb6f796ecaa0607a31c2a");
  ]

let suite_nce =
  [
    ("s1196", 6); ("s1238", 5); ("s1423", 52); ("s1488", 6); ("s5378", 55);
    ("s9234", 61); ("s13207", 191); ("s15850", 174); ("s35932", 288);
    ("s38417", 215); ("s38584", 606); ("plasma", 78);
  ]

let bits_digest f =
  let b = Buffer.create 4096 in
  f (fun x -> Printf.bprintf b "%Lx;" (Int64.bits_of_float x)) b;
  Digest.to_hex (Digest.string (Buffer.contents b))

let outcome_digest (o : Outcome.t) =
  bits_digest (fun add b ->
      Array.iter
        (fun (s, a) ->
          Printf.bprintf b "%d=" s;
          add a)
        o.Outcome.arrivals;
      Buffer.add_string b "ed";
      List.iter (Printf.bprintf b " %d") (List.sort compare o.Outcome.ed_sinks);
      Printf.bprintf b " slaves %d" o.Outcome.n_slaves)

(* Prepared suite circuits, loaded once for the two tests below; the
   second drops them when it is done. *)
let prepared = Hashtbl.create 12

let load circuit =
  match Hashtbl.find_opt prepared circuit with
  | Some p -> p
  | None ->
    let p = Result.get_ok (Suite.load circuit) in
    Hashtbl.replace prepared circuit p;
    p

let test_arrival_digests () =
  Faults.disable ();
  Fun.protect ~finally:Faults.use_env @@ fun () ->
  List.iter
    (fun (circuit, name, want) ->
      let spec = Option.get (Engine.of_name name) in
      match Engine.run_prepared (Engine.config ~c:1.0 spec) (load circuit) with
      | Error e -> Alcotest.fail (Error.to_string e)
      | Ok r ->
        Alcotest.(check string)
          (circuit ^ " " ^ name ^ " arrivals")
          want
          (outcome_digest r.Engine.outcome))
    arrival_digests;
  List.iter
    (fun (circuit, want) ->
      let stage = Result.get_ok (Engine.stage_of (load circuit)) in
      Alcotest.(check string)
        (circuit ^ " initial arrivals")
        want
        (bits_digest (fun add _ ->
             let initial = Stage.initial_arrivals stage in
             Array.iter (fun s -> add initial.(s)) (Stage.sinks stage))))
    initial_arrival_digests;
  List.iter
    (fun (circuit, want) ->
      Alcotest.(check int) (circuit ^ " NCE") want (load circuit).Suite.nce)
    suite_nce

(* Table I's NCE count and RVL's seed apply one window test to one
   sweep: on every suite circuit the prepared count is the size of the
   stage's near-critical set. *)
let test_nce_is_near_critical_initial () =
  List.iter
    (fun (circuit, _) ->
      let p = load circuit in
      let stage = Result.get_ok (Engine.stage_of p) in
      Alcotest.(check int) (circuit ^ " NCE") p.Suite.nce
        (List.length (Stage.near_critical_initial stage)))
    suite_nce;
  Hashtbl.reset prepared

(* Rgraph.build bounds every LP variable into closure's {-1, 0}
   window, so under the default solver every LP an engine solves is
   one max-flow closure: no simplex pivot and no fallback. Network
   simplex is then only closure's fallback and the paper's reference
   (--solver ns). Recorded with faults off and metrics armed. *)
let test_lp_engines_take_closure () =
  let module Metrics = Rar_obs.Metrics in
  Faults.disable ();
  Metrics.reset ();
  Metrics.arm ();
  Fun.protect
    ~finally:(fun () ->
      Metrics.disarm ();
      Metrics.reset ();
      Faults.use_env ())
  @@ fun () ->
  let value k = Metrics.value (Metrics.counter k) in
  List.iter
    (fun circuit ->
      let p = Result.get_ok (Suite.load circuit) in
      List.iter
        (fun name ->
          let spec = Option.get (Engine.of_name name) in
          List.iter
            (fun c ->
              let what = Printf.sprintf "%s %s c=%g" circuit name c in
              let phases = value "maxflow_phases" in
              match Engine.run_prepared (Engine.config ~c spec) p with
              | Error e -> Alcotest.fail (what ^ ": " ^ Error.to_string e)
              | Ok r ->
                Alcotest.(check int) (what ^ ": simplex pivots") 0
                  (value "netsimplex_pivots");
                Alcotest.(check bool) (what ^ ": max-flow phases") true
                  (value "maxflow_phases" > phases);
                Alcotest.(check int) (what ^ ": solver events") 0
                  (List.length r.Engine.events))
            [ 0.5; 1.0; 2.0 ])
        [ "base"; "nvl"; "evl"; "rvl"; "movable"; "grar" ])
    [ "s1196"; "s1423"; "s5378" ]

let suite =
  [
    QCheck_alcotest.to_alcotest prop_registry_legal;
    Alcotest.test_case "registry names round-trip" `Quick test_registry_names;
    Alcotest.test_case "config key covers every field" `Quick
      test_config_key_distinguishes;
    Alcotest.test_case "movable requires the source netlist" `Quick
      test_movable_requires_source;
    Alcotest.test_case "negative or non-finite c is invalid input" `Quick
      test_invalid_c;
    Alcotest.test_case "unknown circuit is typed" `Quick test_unknown_circuit;
    Alcotest.test_case "closure answer identical across jobs 1/2/4" `Quick
      test_closure_jobs_identical;
    Alcotest.test_case "run JSON has the rar-run/1 shape" `Quick
      test_result_json_shape;
    Alcotest.test_case "rar-run/1 digests per engine (s1196, s1423)" `Slow
      test_run_digests;
    Alcotest.test_case "every retiming LP takes closure" `Slow
      test_lp_engines_take_closure;
    Alcotest.test_case "verified arrivals pinned per engine" `Slow
      test_arrival_digests;
    Alcotest.test_case "NCE = the stage's near-critical sinks" `Slow
      test_nce_is_near_critical_initial;
  ]
