(* Report-layer tests: table rendering in all three formats, the cached
   experiment context and its error paths, on a single small benchmark
   to keep the suite fast. *)

module Report = Rar_report.Report
module Row = Rar_report.Row
module T = Rar_report.Text_table
module Json = Rar_util.Json
module Outcome = Rar_retime.Outcome
module Engine = Rar_engine
module Metrics = Rar_obs.Metrics
module Netlist = Rar_netlist.Netlist
module Sim = Rar_sim.Sim
module Faults = Rar_resilience.Faults

let test_text_table () =
  let t = T.create ~headers:[ ("name", T.L); ("x", T.R) ] in
  T.add_row t [ "a"; "1.00" ];
  T.add_rule t;
  T.add_row t [ "total"; "12.50" ];
  let s = T.render t in
  Alcotest.(check bool) "contains header" true
    (String.length s > 0
    && Option.is_some (String.index_opt s '|'));
  (* all lines equal length *)
  let lines = String.split_on_char '\n' (String.trim s) in
  let w = String.length (List.hd lines) in
  List.iter
    (fun l -> Alcotest.(check int) "aligned" w (String.length l))
    lines

let test_text_table_mismatch () =
  let t = T.create ~headers:[ ("a", T.L) ] in
  match T.add_row t [ "x"; "y" ] with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "expected column mismatch rejection"

let test_csv_escaping () =
  (* RFC 4180: commas, quotes, newlines and carriage returns force
     quoting; embedded quotes are doubled; everything else is bare. *)
  let t = T.create ~headers:[ ("name", T.L); ("note", T.L) ] in
  T.add_row t [ "a,b"; "plain" ];
  T.add_rule t;
  T.add_row t [ "say \"hi\""; "line1\nline2" ];
  T.add_row t [ "cr\rhere"; "" ];
  Alcotest.(check string) "rfc 4180 output"
    ("name,note\n" ^ "\"a,b\",plain\n" ^ "\"say \"\"hi\"\"\",\"line1\nline2\"\n"
   ^ "\"cr\rhere\",\n")
    (T.render_csv t)

let ctx = lazy (Report.create ~names:[ "s1196" ] ~sim_cycles:20 ())

let test_cache_hits () =
  let t = Lazy.force ctx in
  let a = Report.run t "s1196" ~spec:Engine.Grar ~c:1.0 in
  let b = Report.run t "s1196" ~spec:Engine.Grar ~c:1.0 in
  Alcotest.(check bool) "same cached object" true (a == b)

let contains hay needle =
  let n = String.length needle in
  let rec find i =
    i + n <= String.length hay
    && (String.sub hay i n = needle || find (i + 1))
  in
  find 0

let test_tables_render () =
  let t = Lazy.force ctx in
  (* Tables I and V exercise prepare + the whole tabulated registry. *)
  List.iter
    (fun n ->
      match Report.table t n with
      | Ok s ->
        Alcotest.(check bool)
          (Printf.sprintf "table %d mentions s1196" n)
          true
          (String.length s > 50 && contains s "s1196")
      | Error e -> Alcotest.fail e)
    [ 1; 5 ]

let test_table_out_of_range () =
  let t = Lazy.force ctx in
  match Report.table t 12 with
  | Ok _ -> Alcotest.fail "expected error for table 12"
  | Error e ->
    Alcotest.(check bool) "one-line diagnostic" true
      (not (String.contains e '\n'));
    Alcotest.(check bool) "names the table" true (contains e "12")

let test_failed_engine_cell () =
  (* A context over an unknown benchmark: every engine cell fails, and
     the table must surface that as a one-line diagnostic, not raise. *)
  let t = Report.create ~names:[ "nosuch" ] ~sim_cycles:20 () in
  (match Report.table t 4 with
  | Ok _ -> Alcotest.fail "expected table 4 to fail on unknown circuit"
  | Error e ->
    Alcotest.(check bool) "one-line diagnostic" true
      (not (String.contains e '\n'));
    Alcotest.(check bool) "names the failing circuit" true
      (contains e "nosuch"));
  (* In JSON a failed table is still a JSON object: its number, title
     and the diagnostic. *)
  List.iter
    (fun (n, title, body) ->
      match Json.of_string body with
      | Error e -> Alcotest.failf "table %d: invalid JSON (%s): %s" n e body
      | Ok j ->
        Alcotest.(check (option int)) "number" (Some n)
          (Json.member_int "number" j);
        Alcotest.(check (option string)) "title" (Some title)
          (Json.member_string "title" j);
        Alcotest.(check bool) "error names the circuit" true
          (match Json.member_string "error" j with
          | Some e -> contains e "nosuch"
          | None -> false))
    (Report.all_tables ~format:Report.Json t)

let test_grar_beats_base_on_suite_circuit () =
  (* The headline comparison on a real benchmark at high overhead. *)
  let t = Lazy.force ctx in
  let g = (Report.run t "s1196" ~spec:Engine.Grar ~c:2.0).Engine.outcome in
  let b = (Report.run t "s1196" ~spec:Engine.Base ~c:2.0).Engine.outcome in
  Alcotest.(check bool) "total area improves" true
    (g.Outcome.total_area <= b.Outcome.total_area +. 1e-9)

(* The three renderings of a table all come from the same typed rows;
   parse the JSON back and cross-check every cell against the text
   rendering cell by cell. *)

let is_rule_line l =
  String.length l > 0
  && String.for_all (fun c -> c = '|' || c = '-') l

let text_data_lines s =
  match String.split_on_char '\n' (String.trim s) with
  | _header :: rest -> List.filter (fun l -> not (is_rule_line l)) rest
  | [] -> []

let text_cells line =
  (* "| a | b |" -> ["a"; "b"] *)
  match String.split_on_char '|' line with
  | "" :: cells -> (
    match List.rev cells with
    | _trailing :: rev -> List.rev_map String.trim rev
    | [] -> [])
  | _ -> Alcotest.fail ("unexpected table line: " ^ line)

let test_json_matches_text () =
  let t = Lazy.force ctx in
  let tbl =
    match Report.rows t 5 with
    | Ok tbl -> tbl
    | Error e -> Alcotest.fail e
  in
  let json =
    match Json.of_string (Row.render_json tbl) with
    | Ok j -> j
    | Error e -> Alcotest.fail ("table 5 JSON does not parse: " ^ e)
  in
  Alcotest.(check (option string)) "schema" (Some "rar-tables/1")
    (match Json.member "schema" json with
    | Some (Json.String s) -> Some s
    | _ -> None);
  Alcotest.(check (option int)) "number" (Some 5)
    (match Json.member "number" json with
    | Some (Json.Int n) -> Some n
    | _ -> None);
  let jrows =
    match Json.member "rows" json with
    | Some (Json.List l) -> l
    | _ -> Alcotest.fail "missing rows array"
  in
  (* Drop rule rows from the JSON and rule lines from the text: what
     remains must agree pairwise, cell by cell. *)
  let data_rows =
    List.filter_map
      (fun r ->
        match Json.member "cells" r with
        | Some (Json.List cells) -> Some cells
        | _ -> None)
      jrows
  in
  let lines = text_data_lines (Row.render_text tbl) in
  Alcotest.(check int) "row count matches text" (List.length lines)
    (List.length data_rows);
  Alcotest.(check bool) "has data rows" true (data_rows <> []);
  let checked = ref 0 in
  List.iter2
    (fun cells line ->
      List.iter2
        (fun jcell text ->
          match jcell with
          | Json.String s ->
            incr checked;
            Alcotest.(check string) "string cell matches text" text s
          | Json.Int _ | Json.Float _ ->
            incr checked;
            Alcotest.(check (float 0.)) "numeric cell matches text"
              (float_of_string text)
              (Option.get (Json.to_float jcell))
          | _ -> ())
        cells (text_cells line))
    data_rows lines;
  Alcotest.(check bool) "cross-checked some cells" true (!checked > 0)

(* Determinism across pool sizes, in text and JSON. Wall-clock cells
   (Table I "Prep (s)", every data column of the Table VII runtime
   comparison) can never be byte-identical between two runs, so Time
   cells are masked in the typed rows before rendering; everything
   else must match exactly. *)

let mask_time =
  Row.map_cells (function Row.Time _ -> Row.Time 0. | c -> c)

let grid_names = [ "s1196"; "s1423" ]
let grid_cycles = 20

(* One context per pool size, precomputed with metrics armed; the
   counters its precompute published come with it. *)
let precomputed =
  let tbl = Hashtbl.create 3 in
  fun ~jobs ->
    match Hashtbl.find_opt tbl jobs with
    | Some v -> v
    | None ->
      Rar_util.Pool.set_jobs jobs;
      let v =
        Fun.protect
          ~finally:(fun () ->
            Metrics.disarm ();
            Metrics.reset ();
            Rar_util.Pool.set_jobs 1)
          (fun () ->
            let t = Report.create ~names:grid_names ~sim_cycles:grid_cycles () in
            Metrics.reset ();
            Metrics.arm ();
            Report.precompute t;
            (t, fst (Metrics.snapshot ())))
      in
      Hashtbl.replace tbl jobs v;
      v

let render_all ~jobs =
  let t, _ = precomputed ~jobs in
  List.map
    (fun n ->
      match Report.rows t n with
      | Ok tbl ->
        let tbl = mask_time tbl in
        (n, Row.render_text tbl, Row.render_json tbl)
      | Error e -> (n, e, e))
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9 ]

let test_jobs_determinism () =
  let seq = render_all ~jobs:1 and par = render_all ~jobs:4 in
  Alcotest.(check int) "same table count" (List.length seq) (List.length par);
  List.iter2
    (fun (n, ts, js) (n', tp, jp) ->
      Alcotest.(check int) "same table number" n n';
      Alcotest.(check string)
        (Printf.sprintf "table %d text identical across pool sizes" n)
        ts tp;
      Alcotest.(check string)
        (Printf.sprintf "table %d JSON identical across pool sizes" n)
        js jp)
    seq par

(* Precompute simulates each distinct Table VIII design exactly once at
   any pool size: [sim_cycles] is the number of distinct designs (seed,
   realised netlist, ED set) times the context's cycle count. *)
let test_sim_once_per_design () =
  let t, _ = precomputed ~jobs:1 in
  let keys = Hashtbl.create 16 in
  List.iter
    (fun name ->
      List.iter
        (fun (_, c) ->
          List.iter
            (fun spec ->
              match Report.run_result t name ~spec ~c with
              | Error _ -> ()
              | Ok r ->
                let d = Report.sim_design r.Engine.stage r.Engine.outcome in
                Hashtbl.replace keys
                  ( name ^ "/" ^ Engine.name spec,
                    Netlist.digest d.Sim.staged,
                    List.sort compare d.Sim.ed_sinks )
                  ())
            Engine.tabulated)
        Report.overheads)
    grid_names;
  let distinct = Hashtbl.length keys in
  let counter jobs name =
    Option.value ~default:0 (List.assoc_opt name (snd (precomputed ~jobs)))
  in
  Alcotest.(check bool) "designs found" true (distinct > 0);
  List.iter
    (fun jobs ->
      Alcotest.(check int)
        (Printf.sprintf "sim_cycles at jobs %d" jobs)
        (distinct * grid_cycles) (counter jobs "sim_cycles");
      Alcotest.(check int)
        (Printf.sprintf "sim_events at jobs %d" jobs)
        (counter 1 "sim_events") (counter jobs "sim_events"))
    [ 1; 2; 4 ];
  Alcotest.(check bool) "events counted" true (counter 1 "sim_events" > 0)

(* Tables II-VI and IX for three circuits, recorded with faults off
   while base, G-RAR, VL and movable still had their own entry points:
   every engine result the comparison tables read shows up here. *)
let tables_golden =
  [
    ( 2,
      {|| Circuit | low gate | low path | low impr% | medium gate | medium path | medium impr% | high gate | high path | high impr% |
|---------|----------|----------|-----------|-------------|-------------|--------------|-----------|-----------|------------|
| s1196   |   409.20 |   387.44 |      5.32 |      415.13 |      393.37 |         5.24 |    427.00 |    405.24 |       5.10 |
| s1423   |   706.43 |   665.88 |      5.74 |      723.24 |      675.77 |         6.56 |    756.87 |    695.55 |       8.10 |
| s5378   |  1529.56 |  1486.05 |      2.84 |     1582.97 |     1491.98 |         5.75 |   1656.16 |   1503.85 |       9.20 |
|---------|----------|----------|-----------|-------------|-------------|--------------|-----------|-----------|------------|
| average |   881.73 |   846.45 |      4.63 |      907.11 |      853.71 |         5.85 |    946.67 |    868.21 |       7.46 |
|} );
    ( 3,
      {|| Circuit | low NVL | low EVL | low RVL | medium NVL | medium EVL | medium RVL | high NVL | high EVL | high RVL |
|---------|---------|---------|---------|------------|------------|------------|----------|----------|----------|
| s1196   |  556.56 |  387.44 |  387.44 |     559.52 |     393.37 |     393.37 |   565.46 |   405.24 |   405.24 |
| s1423   |  851.81 |  693.57 |  693.57 |     861.70 |     745.00 |     745.00 |   881.48 |   847.85 |   847.85 |
| s5378   | 1907.36 | 1494.95 | 1494.95 |    1913.30 |    1549.34 |    1549.34 |  1925.16 |  1658.13 |  1658.13 |
|---------|---------|---------|---------|------------|------------|------------|----------|----------|----------|
| average | 1105.24 |  858.65 |  858.65 |    1111.51 |     895.90 |     895.90 |  1124.03 |   970.41 |   970.41 |
|} );
    ( 4,
      {|| Circuit | low Base | low RVL | low Impr% |   low G | low Impr% | medium Base | medium RVL | medium Impr% | medium G | medium Impr% | high Base | high RVL | high Impr% |  high G | high Impr% |
|---------|----------|---------|-----------|---------|-----------|-------------|------------|--------------|----------|--------------|-----------|----------|------------|---------|------------|
| s1196   |   199.78 |  199.78 |      0.00 |  199.78 |      0.00 |      205.71 |     205.71 |         0.00 |   205.71 |         0.00 |    217.58 |   217.58 |       0.00 |  217.58 |       0.00 |
| s1423   |   464.83 |  464.83 |      0.00 |  437.14 |      5.96 |      516.26 |     516.26 |         0.00 |   447.03 |        13.41 |    619.11 |   619.11 |       0.00 |  466.81 |      24.60 |
| s5378   |  1009.77 | 1009.77 |      0.00 | 1000.87 |      0.88 |     1064.16 |    1064.16 |         0.00 |  1006.80 |         5.39 |   1172.95 |  1172.95 |       0.00 | 1018.67 |      13.15 |
|---------|----------|---------|-----------|---------|-----------|-------------|------------|--------------|----------|--------------|-----------|----------|------------|---------|------------|
| average |   558.13 |  558.13 |      0.00 |  545.93 |      2.28 |      595.38 |     595.38 |         0.00 |   553.18 |         6.27 |    669.88 |   669.88 |       0.00 |  567.69 |      12.58 |
|} );
    ( 5,
      {|| Circuit | low Base | low RVL | low Impr% |   low G | low Impr% | medium Base | medium RVL | medium Impr% | medium G | medium Impr% | high Base | high RVL | high Impr% |  high G | high Impr% |
|---------|----------|---------|-----------|---------|-----------|-------------|------------|--------------|----------|--------------|-----------|----------|------------|---------|------------|
| s1196   |   387.44 |  387.44 |      0.00 |  387.44 |      0.00 |      393.37 |     393.37 |         0.00 |   393.37 |         0.00 |    405.24 |   405.24 |       0.00 |  405.24 |       0.00 |
| s1423   |   693.57 |  693.57 |      0.00 |  665.88 |      3.99 |      745.00 |     745.00 |         0.00 |   675.77 |         9.29 |    847.85 |   847.85 |       0.00 |  695.55 |      17.96 |
| s5378   |  1494.95 | 1494.95 |      0.00 | 1486.05 |      0.60 |     1549.34 |    1549.34 |         0.00 |  1491.98 |         3.70 |   1658.13 |  1658.13 |       0.00 | 1503.85 |       9.30 |
|---------|----------|---------|-----------|---------|-----------|-------------|------------|--------------|----------|--------------|-----------|----------|------------|---------|------------|
| average |   858.65 |  858.65 |      0.00 |  846.45 |      1.53 |      895.90 |     895.90 |         0.00 |   853.71 |         4.33 |    970.41 |   970.41 |       0.00 |  868.21 |       9.09 |
|} );
    ( 6,
      {|| Circuit | Approach | low slave# | low EDL# | medium slave# | medium EDL# | high slave# | high EDL# |
|---------|----------|------------|----------|---------------|-------------|-------------|-----------|
| s1196   | Base     |         52 |        6 |            52 |           6 |          52 |         6 |
| s1196   | RVL      |         52 |        6 |            52 |           6 |          52 |         6 |
| s1196   | G        |         52 |        6 |            52 |           6 |          52 |         6 |
|---------|----------|------------|----------|---------------|-------------|-------------|-----------|
| s1423   | Base     |        113 |       52 |           113 |          52 |         113 |        52 |
| s1423   | RVL      |        113 |       52 |           113 |          52 |         113 |        52 |
| s1423   | G        |        120 |       10 |           120 |          10 |         120 |        10 |
|---------|----------|------------|----------|---------------|-------------|-------------|-----------|
| s5378   | Base     |        236 |       55 |           236 |          55 |         236 |        55 |
| s5378   | RVL      |        236 |       55 |           236 |          55 |         236 |        55 |
| s5378   | G        |        256 |        6 |           256 |           6 |         256 |         6 |
|---------|----------|------------|----------|---------------|-------------|-------------|-----------|
|} );
    ( 9,
      {|| Circuit | low fixed | low movable | low diff% | medium fixed | medium movable | medium diff% | high fixed | high movable | high diff% |
|---------|-----------|-------------|-----------|--------------|----------------|--------------|------------|--------------|------------|
| s1196   |    387.44 |      387.44 |      0.00 |       393.37 |         393.37 |         0.00 |     405.24 |       405.24 |       0.00 |
| s1423   |    693.57 |      692.58 |      0.14 |       745.00 |         743.02 |         0.27 |     847.85 |       843.90 |       0.47 |
| s5378   |   1494.95 |     1494.95 |      0.00 |      1549.34 |        1549.34 |         0.00 |    1658.13 |      1658.13 |       0.00 |
|---------|-----------|-------------|-----------|--------------|----------------|--------------|------------|--------------|------------|
| average |           |             |      0.05 |              |                |         0.09 |            |              |       0.16 |
|} );
  ]

let test_tables_golden () =
  Faults.disable ();
  Fun.protect ~finally:Faults.use_env @@ fun () ->
  let t = Report.create ~names:[ "s1196"; "s1423"; "s5378" ] () in
  List.iter
    (fun (n, want) ->
      match Report.table t n with
      | Ok got ->
        Alcotest.(check string) (Printf.sprintf "Table %d text" n) want got
      | Error e -> Alcotest.fail e)
    tables_golden

let suite =
  [
    Alcotest.test_case "text table renders aligned" `Quick test_text_table;
    Alcotest.test_case "text table rejects mismatch" `Quick
      test_text_table_mismatch;
    Alcotest.test_case "csv escaping is RFC 4180" `Quick test_csv_escaping;
    Alcotest.test_case "context caches results" `Quick test_cache_hits;
    Alcotest.test_case "tables render" `Quick test_tables_render;
    Alcotest.test_case "out-of-range table is a one-line error" `Quick
      test_table_out_of_range;
    Alcotest.test_case "failed engine cell is a one-line error" `Quick
      test_failed_engine_cell;
    Alcotest.test_case "G-RAR beats base on s1196" `Quick
      test_grar_beats_base_on_suite_circuit;
    Alcotest.test_case "JSON cells match text cells" `Quick
      test_json_matches_text;
    Alcotest.test_case "tables identical across pool sizes" `Slow
      test_jobs_determinism;
    Alcotest.test_case "precompute simulates each design once" `Slow
      test_sim_once_per_design;
    Alcotest.test_case "Tables II-VI, IX golden (s1196, s1423, s5378)" `Slow
      test_tables_golden;
  ]
