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
   per-edge form of Constraints (6)/(7). *)
let placements_legal stage placements =
  let illegal = Stage.illegal_edges stage in
  List.for_all
    (fun (p : Transform.placement) ->
      List.for_all
        (fun (fanout, _pin) -> not (List.mem (p.Transform.after, fanout) illegal))
        p.Transform.latched)
    placements

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

let result_legal spec (r : Engine.result) =
  let o = r.Engine.outcome in
  let period = Clocking.period (Stage.clocking r.Engine.stage) in
  let staged =
    Transform.apply_retiming (Stage.cc r.Engine.stage) o.Outcome.placements
  in
  (* The un-retimed design may sit on positions retiming exists to fix,
     so the timing-cleanliness and Constraint (6)/(7) checks apply to
     the retiming engines only. *)
  (spec = Engine.Initial
  || o.Outcome.violations = []
     && placements_legal r.Engine.stage o.Outcome.placements)
  && o.Outcome.n_slaves = List.length o.Outcome.placements
  && ed_consistent spec o period
  && one_slave_per_path staged

let prop_registry_legal =
  QCheck.Test.make ~name:"every registered engine is legal and timing-clean"
    ~count:6
    QCheck.(int_bound 40)
    (fun seed ->
      let p = cached_prepared seed in
      List.for_all
        (fun spec ->
          let cfg = Engine.config ~c:1.0 ~movable_moves:2 spec in
          match Engine.run_prepared cfg p with
          | Ok r -> result_legal spec r
          | Error e ->
            QCheck.Test.fail_reportf "%s failed: %s" (Engine.name spec)
              (Error.to_string e))
        Engine.all)

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
        Engine.config ~solver:Rar_flow.Difflp.Ssp ~c:1.0 Engine.Grar;
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
  ]
