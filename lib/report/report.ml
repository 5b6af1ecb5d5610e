module Suite = Rar_circuits.Suite
module Spec = Rar_circuits.Spec
module Stage = Rar_retime.Stage
module Outcome = Rar_retime.Outcome
module Error = Rar_retime.Error
module Engine = Rar_engine
module Sim = Rar_sim.Sim
module Sta = Rar_sta.Sta
module Transform = Rar_netlist.Transform
module Netlist = Rar_netlist.Netlist
module Clocking = Rar_sta.Clocking
module T = Text_table
module R = Row

let overheads = [ ("low", 0.5); ("medium", 1.0); ("high", 2.0) ]

type format = Text | Csv | Json

exception Engine_failed of { what : string; err : Error.t }

(* Candidate-move budget of Table IX's movable-master local search. *)
let movable_moves = 4

type t = {
  names_ : string list;
  sim_cycles : int;
  solver : Rar_flow.Difflp.engine option;
  prepared_ : (string, Suite.prepared) Hashtbl.t;
  stages : (string, Stage.t) Hashtbl.t;
  results : (string, Engine.result) Hashtbl.t; (* circuit "/" config_key *)
  rates : (string, Sim.rate) Hashtbl.t; (* circuit/engine/c *)
  sims : (string, Sim.rate) Hashtbl.t; (* design key, see [design_key] *)
  rows_ : (int, Row.table) Hashtbl.t;
}

let create ?(names = Spec.names) ?(sim_cycles = 300) ?solver () =
  if sim_cycles < 1 then
    invalid_arg (Printf.sprintf "Report.create: sim_cycles %d < 1" sim_cycles);
  {
    names_ = names;
    sim_cycles;
    solver;
    prepared_ = Hashtbl.create 16;
    stages = Hashtbl.create 32;
    results = Hashtbl.create 256;
    rates = Hashtbl.create 64;
    sims = Hashtbl.create 64;
    rows_ = Hashtbl.create 16;
  }

let names t = t.names_

(* Compute and store on a miss. Failures escape as exceptions and are
   never cached. *)
let memo tbl key f =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
    let v = f () in
    Hashtbl.replace tbl key v;
    v

let fail what err = raise (Engine_failed { what; err })
let ok_or_fail what = function Ok v -> v | Error err -> fail what err

let prepared t name =
  memo t.prepared_ name (fun () ->
      match Suite.load name with
      | Ok p -> p
      | Error _ -> fail name (Error.Unknown_circuit name))

let stage t ?(model = Sta.Path_based) name =
  memo t.stages
    (Printf.sprintf "%s/%s" name (Engine.model_name model))
    (fun () ->
      ok_or_fail (name ^ " stage") (Engine.stage_of ~model (prepared t name)))

let config t ?(model = Sta.Path_based) ~c spec =
  Engine.config ~model ?solver:t.solver ~c ~movable_moves spec

(* Carries a failed run out of [memo], which caches only values. *)
exception Run_failed of Error.t

let run_result t ?(model = Sta.Path_based) name ~spec ~c =
  let cfg = config t ~model ~c spec in
  match
    memo t.results (name ^ "/" ^ Engine.config_key cfg) (fun () ->
        match Engine.run cfg (stage t ~model name) with
        | Ok r -> r
        | Error err -> raise_notrace (Run_failed err))
  with
  | r -> Ok r
  | exception Run_failed err -> Error err

let run t ?model name ~spec ~c =
  ok_or_fail
    (name ^ " " ^ Engine.name spec)
    (run_result t ?model name ~spec ~c)

(* Slave insertion keeps every comb id, so the outcome's sink ids
   address the staged netlist as they are. *)
let sim_design st (outcome : Outcome.t) =
  {
    Sim.staged =
      Transform.apply_retiming (Stage.cc st) outcome.Outcome.placements;
    lib = Stage.lib st;
    clocking = Stage.clocking st;
    ed_sinks = outcome.Outcome.ed_sinks;
  }

(* Table VIII cells are memoised twice. [rates] is keyed by the cell
   (circuit/engine/c) and is the cheap hit path. On a miss the cell's
   design is realised and looked up in [sims], keyed by everything the
   simulation reads — the seed, the staged netlist's digest, the sorted
   error-detecting sinks and the clocking (the library and the cycle
   count are fixed per context) — so cells whose engine returns the same
   design at every c share one simulation. *)
let cell_key name spec c = Printf.sprintf "%s/%s/%h" name (Engine.name spec) c

let clocking_key = function
  | Clocking.Two_phase { phi1; gamma1; phi2; gamma2 } ->
    Printf.sprintf "2:%h:%h:%h:%h" phi1 gamma1 phi2 gamma2
  | Clocking.Three_phase { phi; gamma } -> Printf.sprintf "3:%h:%h" phi gamma

let design_key seed (d : Sim.design) =
  Printf.sprintf "%S %s %s %s" seed
    (Netlist.digest d.Sim.staged)
    (String.concat ","
       (List.map string_of_int (List.sort_uniq compare d.Sim.ed_sinks)))
    (clocking_key d.Sim.clocking)

let error_rate t name ~spec ~c =
  memo t.rates (cell_key name spec c) (fun () ->
      let r = run t name ~spec ~c in
      let seed = name ^ "/" ^ Engine.name spec in
      let design = sim_design r.Engine.stage r.Engine.outcome in
      memo t.sims (design_key seed design) (fun () ->
          Sim.error_rate ~cycles:t.sim_cycles ~seed design))

(* ------------------------------------------------------------------ *)
(* Tables                                                              *)
(* ------------------------------------------------------------------ *)

let impr base x = 100. *. (base -. x) /. base
let total_area (o : Outcome.t) = o.Outcome.total_area
let outcome t ?model name ~spec ~c = (run t ?model name ~spec ~c).Engine.outcome

let title = function
  | 1 -> "Table I: circuit information of original flop-based designs"
  | 2 -> "Table II: total area, gate-based vs path-based delay G-RAR"
  | 3 -> "Table III: total area of virtual library approaches"
  | 4 -> "Table IV: sequential logic area (Base / RVL-RAR / G-RAR)"
  | 5 -> "Table V: total area (Base / RVL-RAR / G-RAR)"
  | 6 -> "Table VI: slave and error-detecting master latch counts"
  | 7 -> "Table VII: run-time (s)"
  | 8 -> "Table VIII: error-rate (%)"
  | 9 -> "Table IX: fixed-master vs movable-master RVL-RAR"
  | n -> Printf.sprintf "Table %d" n

let table_of number columns rows =
  { Row.number; title = title number; columns; rows }

(* Column means of [width] columns over [rows] (one value list per
   circuit; no rows gives zeros). Each column sums from the last circuit
   to the first, the order the averages were first published in, so
   they stay bitwise equal. *)
let averages width rows =
  let n = float_of_int (Int.max 1 (List.length rows)) in
  List.fold_left (List.map2 ( +. ))
    (List.init width (fun _ -> 0.))
    (List.rev rows)
  |> List.map (fun sum -> sum /. n)

(* One column of a per-overhead group: its header after the overhead
   tag, how a value shows, and whether the average row covers it. *)
type column = { head : string; show : float -> R.cell; averaged : bool }

let area head = { head; show = (fun v -> R.float' v); averaged = true }
let pct head = { head; show = (fun v -> R.Pct v); averaged = true }

(* Every per-overhead comparison table: a Circuit column, one group of
   [columns] per overhead holding [values name c], one row per circuit,
   and an average row over the averaged columns if there are any. *)
let grid t number columns values =
  let headers =
    List.concat_map
      (fun (tag, _) ->
        List.map (fun col -> (tag ^ " " ^ col.head, T.R)) columns)
      overheads
  in
  let cols = List.concat_map (fun _ -> columns) overheads in
  let data =
    List.map
      (fun name -> List.concat_map (fun (_, c) -> values name c) overheads)
      t.names_
  in
  let row first cells = R.Cells (R.Str first :: cells) in
  let body =
    List.map2
      (fun name vs -> row name (List.map2 (fun col -> col.show) cols vs))
      t.names_ data
  in
  let footer =
    if not (List.exists (fun col -> col.averaged) columns) then []
    else
      [ R.Rule;
        row "average"
          (List.map2
             (fun col v -> if col.averaged then col.show v else R.Empty)
             cols
             (averages (List.length cols) data)) ]
  in
  table_of number (("Circuit", T.L) :: headers) (body @ footer)

let table_i t =
  let columns =
    [ ("Circuit", T.L); ("P (ns)", T.R); ("flop #", T.R); ("NCE #", T.R);
      ("Prep (s)", T.R); ("Area", T.R) ]
  in
  let circuits = List.map (fun name -> (name, prepared t name)) t.names_ in
  let body =
    List.map
      (fun (name, (p : Suite.prepared)) ->
        R.Cells
          [ R.Str name; R.Float { v = p.p; decimals = 3 }; R.Int p.n_flops;
            R.Int p.nce; R.Time p.runtime_s; R.float' p.flop_area ])
      circuits
  in
  let footer =
    match
      averages 5
        (List.map
           (fun (_, (p : Suite.prepared)) ->
             [ p.p; float_of_int p.n_flops; float_of_int p.nce; p.runtime_s;
               p.flop_area ])
           circuits)
    with
    | [ p; f; n; r; a ] ->
      R.Cells
        [ R.Str "average"; R.Float { v = p; decimals = 3 }; R.float' f;
          R.float' n; R.Time r; R.float' a ]
    | _ -> assert false
  in
  table_of 1 columns (body @ [ R.Rule; footer ])

let table_ii t =
  grid t 2 [ area "gate"; area "path"; pct "impr%" ] (fun name c ->
      let g =
        total_area (outcome t ~model:Sta.Gate_based name ~spec:Engine.Grar ~c)
      in
      let p = total_area (outcome t name ~spec:Engine.Grar ~c) in
      [ g; p; impr g p ])

let table_iii t =
  let variants = Engine.[ Vl Nvl; Vl Evl; Vl Rvl ] in
  grid t 3
    (List.map (fun spec -> area (Engine.label spec)) variants)
    (fun name c ->
      List.map (fun spec -> total_area (outcome t name ~spec ~c)) variants)

(* Tables IV and V share their shape: [area_of] selects sequential vs
   total area. Columns come from the engine registry — the first tabulated
   engine is the baseline, every other engine gets a value column and
   an improvement-over-baseline column. *)
let table_iv_v t number area_of =
  let baseline, rest =
    match Engine.tabulated with
    | b :: rest -> (b, rest)
    | [] -> invalid_arg "Report: empty engine registry"
  in
  grid t number
    (area (Engine.label baseline)
    :: List.concat_map
         (fun spec -> [ area (Engine.label spec); pct "Impr%" ])
         rest)
    (fun name c ->
      let b = area_of (outcome t name ~spec:baseline ~c) in
      b
      :: List.concat_map
           (fun spec ->
             let x = area_of (outcome t name ~spec ~c) in
             [ x; impr b x ])
           rest)

let table_vi t =
  let columns =
    [ ("Circuit", T.L); ("Approach", T.L) ]
    @ List.concat_map
        (fun (tag, _) -> [ (tag ^ " slave#", T.R); (tag ^ " EDL#", T.R) ])
        overheads
  in
  let body =
    List.concat_map
      (fun name ->
        List.map
          (fun spec ->
            let cells =
              List.concat_map
                (fun (_, c) ->
                  let o = outcome t name ~spec ~c in
                  [ R.Int o.Outcome.n_slaves; R.Int (Outcome.ed_count o) ])
                overheads
            in
            R.Cells (R.Str name :: R.Str (Engine.label spec) :: cells))
          Engine.tabulated
        @ [ R.Rule ])
      t.names_
  in
  table_of 6 columns body

(* Tables VII and VIII: one column per tabulated engine in each group. *)
let per_engine t number column value =
  grid t number
    (List.map (fun spec -> column (Engine.label spec)) Engine.tabulated)
    (fun name c -> List.map (fun spec -> value name spec c) Engine.tabulated)

let table_vii t =
  per_engine t 7
    (fun head -> { head; show = (fun v -> R.Time v); averaged = false })
    (fun name spec c -> (run t name ~spec ~c).Engine.wall_s)

let table_viii t =
  per_engine t 8 pct (fun name spec c ->
      (error_rate t name ~spec ~c).Sim.error_rate)

let table_ix t =
  let shown head = { (area head) with averaged = false } in
  grid t 9 [ shown "fixed"; shown "movable"; pct "diff%" ] (fun name c ->
      let r = run t name ~spec:Engine.Movable ~c in
      let f =
        match r.Engine.extras with
        | Engine.Moves { fixed_total_area; _ } -> fixed_total_area
        | _ -> total_area r.Engine.outcome
      in
      let v = total_area r.Engine.outcome in
      [ f; v; impr f v ])

let build_rows t = function
  | 1 -> table_i t
  | 2 -> table_ii t
  | 3 -> table_iii t
  | 4 -> table_iv_v t 4 (fun o -> o.Outcome.seq_area)
  | 5 -> table_iv_v t 5 total_area
  | 6 -> table_vi t
  | 7 -> table_vii t
  | 8 -> table_viii t
  | 9 -> table_ix t
  | _ -> assert false

let rows t n =
  if n < 1 || n > 9 then Error (Printf.sprintf "no table %d (valid: 1-9)" n)
  else
    try Ok (memo t.rows_ n (fun () -> build_rows t n))
    with Engine_failed { what; err } ->
      Error
        (Printf.sprintf "table %d: %s failed: %s" n what (Error.to_string err))

let render format rows =
  match format with
  | Text -> Row.render_text rows
  | Csv -> Row.render_csv rows
  | Json -> Row.render_json rows

let table t ?(format = Text) n = Result.map (render format) (rows t n)

let all_tables ?(format = Text) t =
  List.map
    (fun n ->
      let body =
        match (table t ~format n, format) with
        | Ok s, _ -> s
        | Error e, (Text | Csv) -> e
        | Error e, Json ->
          Rar_util.Json.(
            to_string
              (Obj
                 [
                   ("number", Int n);
                   ("title", String (title n));
                   ("error", String e);
                 ]))
      in
      (n, title n, body))
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
