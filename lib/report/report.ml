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
  lock : Mutex.t; (* guards every memo table below *)
  prepared_ : (string, Suite.prepared) Hashtbl.t;
  stages : (string, Stage.t) Hashtbl.t;
  results : (string, Engine.result) Hashtbl.t; (* circuit "/" config_key *)
  rates : (string, Sim.rate) Hashtbl.t; (* circuit/engine/c *)
  sims : (string, Sim.rate) Hashtbl.t; (* design key, see [design_key] *)
  rows_ : (int, Row.table) Hashtbl.t;
}

let create ?(names = Spec.names) ?(sim_cycles = 300) ?solver () =
  {
    names_ = names;
    sim_cycles;
    solver;
    lock = Mutex.create ();
    prepared_ = Hashtbl.create 16;
    stages = Hashtbl.create 32;
    results = Hashtbl.create 256;
    rates = Hashtbl.create 64;
    sims = Hashtbl.create 64;
    rows_ = Hashtbl.create 16;
  }

let names t = t.names_

(* Double-checked memoisation: the lock is held only around table
   access, never while [f] runs, so memoised engines can recursively
   memoise their inputs and independent cells can compute in parallel
   on the pool. Two domains racing on the same key both compute; the
   first store wins (engines are deterministic, so both values are
   equal — the winner just keeps object identity stable). Failures
   escape as exceptions and are never cached. *)
let memo t tbl key f =
  let find () = Mutex.protect t.lock (fun () -> Hashtbl.find_opt tbl key) in
  match find () with
  | Some v -> v
  | None ->
    let v = f () in
    Mutex.protect t.lock (fun () ->
        match Hashtbl.find_opt tbl key with
        | Some winner -> winner
        | None ->
          Hashtbl.replace tbl key v;
          v)

let fail what err = raise (Engine_failed { what; err })
let ok_or_fail what = function Ok v -> v | Error err -> fail what err

let prepared t name =
  memo t t.prepared_ name (fun () ->
      match Suite.load name with
      | Ok p -> p
      | Error _ -> fail name (Error.Unknown_circuit name))

let stage t ?(model = Sta.Path_based) name =
  memo t t.stages
    (Printf.sprintf "%s/%s" name (Engine.model_name model))
    (fun () ->
      ok_or_fail (name ^ " stage") (Engine.stage_of ~model (prepared t name)))

let config t ?(model = Sta.Path_based) ~c spec =
  Engine.config ~model ?solver:t.solver ~c ~movable_moves spec

let run_result t ?(model = Sta.Path_based) name ~spec ~c =
  let cfg = config t ~model ~c spec in
  let key = name ^ "/" ^ Engine.config_key cfg in
  let find () =
    Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.results key)
  in
  match find () with
  | Some r -> Ok r
  | None -> (
    match Engine.run cfg (stage t ~model name) with
    | Error _ as e -> e
    | Ok r ->
      Ok
        (Mutex.protect t.lock (fun () ->
             match Hashtbl.find_opt t.results key with
             | Some winner -> winner
             | None ->
               Hashtbl.replace t.results key r;
               r)))

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
  memo t t.rates (cell_key name spec c) (fun () ->
      let r = run t name ~spec ~c in
      let seed = name ^ "/" ^ Engine.name spec in
      let design = sim_design r.Engine.stage r.Engine.outcome in
      memo t t.sims (design_key seed design) (fun () ->
          Sim.error_rate ~cycles:t.sim_cycles ~seed design))

(* ------------------------------------------------------------------ *)
(* Parallel precompute                                                 *)
(* ------------------------------------------------------------------ *)

(* Populate the memo tables for the whole (circuit x overhead x
   engine) result grid through the domain pool, phase by phase so
   each phase's cells find their inputs already memoised instead of
   racing to recompute them. Failures are swallowed here: a cell that
   cannot be computed fails again — deterministically and with its
   real error — when the table that needs it renders. *)
let precompute t =
  let phase thunks =
    ignore
      (Rar_util.Pool.run (List.map (fun f () -> try f () with _ -> ()) thunks)
        : unit list)
  in
  let names = t.names_ in
  phase (List.map (fun name () -> ignore (prepared t name)) names);
  phase
    (List.concat_map
       (fun name ->
         [ (fun () -> ignore (stage t name));
           (fun () -> ignore (stage t ~model:Sta.Gate_based name)) ])
       names);
  phase
    (List.concat_map
       (fun name ->
         List.concat_map
           (fun (_, c) ->
             (fun () ->
               ignore (run t ~model:Sta.Gate_based name ~spec:Engine.Grar ~c))
             :: List.map
                  (fun spec () -> ignore (run t name ~spec ~c))
                  Engine.all)
           overheads)
       names);
  (* Table VIII. A design key starts with its seed (circuit/engine), so
     only one circuit and engine's cells can share a simulation: one
     task per pair walks its c values in order, and its first cell of
     each distinct design simulates it while the others hit [sims]. So
     each distinct design is simulated once at any job count, and each
     task holds one realised design at a time. *)
  phase
    (List.concat_map
       (fun name ->
         List.map
           (fun spec () ->
             List.iter
               (fun (_, c) ->
                 try ignore (error_rate t name ~spec ~c) with _ -> ())
               overheads)
           Engine.tabulated)
       names)

(* ------------------------------------------------------------------ *)
(* Table helpers                                                       *)
(* ------------------------------------------------------------------ *)

let impr base x = 100. *. (base -. x) /. base

let avg xs =
  match xs with
  | [] -> 0.
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let seq_area (o : Outcome.t) = o.Outcome.seq_area
let total_area (o : Outcome.t) = o.Outcome.total_area

let outcome t ?model name ~spec ~c = (run t ?model name ~spec ~c).Engine.outcome

(* Accumulator for the "average" footer rows. *)
let sums () =
  let tbl = Hashtbl.create 16 in
  let push key x =
    Hashtbl.replace tbl key (x :: Option.value ~default:[] (Hashtbl.find_opt tbl key))
  in
  let avg_of key = avg (Option.value ~default:[] (Hashtbl.find_opt tbl key)) in
  (push, avg_of)

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

(* ------------------------------------------------------------------ *)
(* Tables                                                              *)
(* ------------------------------------------------------------------ *)

let table_i t =
  let columns =
    [ ("Circuit", T.L); ("P (ns)", T.R); ("flop #", T.R); ("NCE #", T.R);
      ("Prep (s)", T.R); ("Area", T.R) ]
  in
  let push, avg_of = sums () in
  let body =
    List.map
      (fun name ->
        let p = prepared t name in
        push "p" p.Suite.p;
        push "f" (float_of_int p.Suite.n_flops);
        push "n" (float_of_int p.Suite.nce);
        push "r" p.Suite.runtime_s;
        push "a" p.Suite.flop_area;
        R.Cells
          [ R.Str name; R.Float { v = p.Suite.p; decimals = 3 };
            R.Int p.Suite.n_flops; R.Int p.Suite.nce;
            R.Time p.Suite.runtime_s; R.float' p.Suite.flop_area ])
      t.names_
  in
  let footer =
    R.Cells
      [ R.Str "average"; R.Float { v = avg_of "p"; decimals = 3 };
        R.float' (avg_of "f"); R.float' (avg_of "n"); R.Time (avg_of "r");
        R.float' (avg_of "a") ]
  in
  table_of 1 columns (body @ [ R.Rule; footer ])

let table_ii t =
  let columns =
    ("Circuit", T.L)
    :: List.concat_map
         (fun (tag, _) ->
           [ (tag ^ " gate", T.R); (tag ^ " path", T.R); (tag ^ " impr%", T.R) ])
         overheads
  in
  let push, avg_of = sums () in
  let body =
    List.map
      (fun name ->
        let cells =
          List.concat_map
            (fun (tag, c) ->
              let g =
                total_area
                  (outcome t ~model:Sta.Gate_based name ~spec:Engine.Grar ~c)
              in
              let p = total_area (outcome t name ~spec:Engine.Grar ~c) in
              push (tag ^ "g") g;
              push (tag ^ "p") p;
              push (tag ^ "i") (impr g p);
              [ R.float' g; R.float' p; R.Pct (impr g p) ])
            overheads
        in
        R.Cells (R.Str name :: cells))
      t.names_
  in
  let footer =
    R.Cells
      (R.Str "average"
      :: List.concat_map
           (fun (tag, _) ->
             [ R.float' (avg_of (tag ^ "g")); R.float' (avg_of (tag ^ "p"));
               R.Pct (avg_of (tag ^ "i")) ])
           overheads)
  in
  table_of 2 columns (body @ [ R.Rule; footer ])

let table_iii t =
  let variants = Engine.[ Vl Nvl; Vl Evl; Vl Rvl ] in
  let columns =
    ("Circuit", T.L)
    :: List.concat_map
         (fun (tag, _) ->
           List.map (fun spec -> (tag ^ " " ^ Engine.label spec, T.R)) variants)
         overheads
  in
  let push, avg_of = sums () in
  let body =
    List.map
      (fun name ->
        let cells =
          List.concat_map
            (fun (tag, c) ->
              List.map
                (fun spec ->
                  let a = total_area (outcome t name ~spec ~c) in
                  push (tag ^ Engine.label spec) a;
                  R.float' a)
                variants)
            overheads
        in
        R.Cells (R.Str name :: cells))
      t.names_
  in
  let footer =
    R.Cells
      (R.Str "average"
      :: List.concat_map
           (fun (tag, _) ->
             List.map
               (fun spec -> R.float' (avg_of (tag ^ Engine.label spec)))
               variants)
           overheads)
  in
  table_of 3 columns (body @ [ R.Rule; footer ])

(* Tables IV and V share their shape: an area extractor selects
   sequential vs total area. Columns come from the engine registry —
   the first tabulated engine is the baseline, every other engine gets
   a value column and an improvement-over-baseline column. *)
let table_iv_v t number ~area =
  let baseline, rest =
    match Engine.tabulated with
    | b :: rest -> (b, rest)
    | [] -> invalid_arg "Report: empty engine registry"
  in
  let columns =
    ("Circuit", T.L)
    :: List.concat_map
         (fun (tag, _) ->
           (tag ^ " " ^ Engine.label baseline, T.R)
           :: List.concat_map
                (fun spec ->
                  [ (tag ^ " " ^ Engine.label spec, T.R);
                    (tag ^ " Impr%", T.R) ])
                rest)
         overheads
  in
  let push, avg_of = sums () in
  let body =
    List.map
      (fun name ->
        let cells =
          List.concat_map
            (fun (tag, c) ->
              let b = area (outcome t name ~spec:baseline ~c) in
              push (tag ^ Engine.name baseline) b;
              R.float' b
              :: List.concat_map
                   (fun spec ->
                     let x = area (outcome t name ~spec ~c) in
                     push (tag ^ Engine.name spec) x;
                     push (tag ^ Engine.name spec ^ "i") (impr b x);
                     [ R.float' x; R.Pct (impr b x) ])
                   rest)
            overheads
        in
        R.Cells (R.Str name :: cells))
      t.names_
  in
  let footer =
    R.Cells
      (R.Str "average"
      :: List.concat_map
           (fun (tag, _) ->
             R.float' (avg_of (tag ^ Engine.name baseline))
             :: List.concat_map
                  (fun spec ->
                    [ R.float' (avg_of (tag ^ Engine.name spec));
                      R.Pct (avg_of (tag ^ Engine.name spec ^ "i")) ])
                  rest)
           overheads)
  in
  table_of number columns (body @ [ R.Rule; footer ])

let table_iv t = table_iv_v t 4 ~area:seq_area
let table_v t = table_iv_v t 5 ~area:total_area

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

let table_vii t =
  let columns =
    ("Circuit", T.L)
    :: List.concat_map
         (fun (tag, _) ->
           List.map
             (fun spec -> (tag ^ " " ^ Engine.label spec, T.R))
             Engine.tabulated)
         overheads
  in
  let body =
    List.map
      (fun name ->
        let cells =
          List.concat_map
            (fun (_, c) ->
              List.map
                (fun spec -> R.Time (run t name ~spec ~c).Engine.wall_s)
                Engine.tabulated)
            overheads
        in
        R.Cells (R.Str name :: cells))
      t.names_
  in
  table_of 7 columns body

let table_viii t =
  let columns =
    ("Circuit", T.L)
    :: List.concat_map
         (fun (tag, _) ->
           List.map
             (fun spec -> (tag ^ " " ^ Engine.label spec, T.R))
             Engine.tabulated)
         overheads
  in
  let push, avg_of = sums () in
  let body =
    List.map
      (fun name ->
        let cells =
          List.concat_map
            (fun (tag, c) ->
              List.map
                (fun spec ->
                  let r = error_rate t name ~spec ~c in
                  push (tag ^ Engine.name spec) r.Sim.error_rate;
                  R.Pct r.Sim.error_rate)
                Engine.tabulated)
            overheads
        in
        R.Cells (R.Str name :: cells))
      t.names_
  in
  let footer =
    R.Cells
      (R.Str "average"
      :: List.concat_map
           (fun (tag, _) ->
             List.map
               (fun spec -> R.Pct (avg_of (tag ^ Engine.name spec)))
               Engine.tabulated)
           overheads)
  in
  table_of 8 columns (body @ [ R.Rule; footer ])

let table_ix t =
  let columns =
    ("Circuit", T.L)
    :: List.concat_map
         (fun (tag, _) ->
           [ (tag ^ " fixed", T.R); (tag ^ " movable", T.R);
             (tag ^ " diff%", T.R) ])
         overheads
  in
  let push, avg_of = sums () in
  let body =
    List.map
      (fun name ->
        let cells =
          List.concat_map
            (fun (tag, c) ->
              let r = run t name ~spec:Engine.Movable ~c in
              let f =
                match r.Engine.extras with
                | Engine.Moves { fixed_total_area; _ } -> fixed_total_area
                | _ -> total_area r.Engine.outcome
              in
              let v = total_area r.Engine.outcome in
              push (tag ^ "d") (impr f v);
              [ R.float' f; R.float' v; R.Pct (impr f v) ])
            overheads
        in
        R.Cells (R.Str name :: cells))
      t.names_
  in
  let footer =
    R.Cells
      (R.Str "average"
      :: List.concat_map
           (fun (tag, _) -> [ R.Empty; R.Empty; R.Pct (avg_of (tag ^ "d")) ])
           overheads)
  in
  table_of 9 columns (body @ [ R.Rule; footer ])

let build_rows t = function
  | 1 -> table_i t
  | 2 -> table_ii t
  | 3 -> table_iii t
  | 4 -> table_iv t
  | 5 -> table_v t
  | 6 -> table_vi t
  | 7 -> table_vii t
  | 8 -> table_viii t
  | 9 -> table_ix t
  | _ -> assert false

let rows t n =
  if n < 1 || n > 9 then Error (Printf.sprintf "no table %d (valid: 1-9)" n)
  else
    try Ok (memo t t.rows_ n (fun () -> build_rows t n))
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
  precompute t;
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
