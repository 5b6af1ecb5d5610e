module Netlist = Rar_netlist.Netlist
module Transform = Rar_netlist.Transform
module Liberty = Rar_liberty.Liberty
module Sta = Rar_sta.Sta
module Clocking = Rar_sta.Clocking
module Difflp = Rar_flow.Difflp
module Stage = Rar_retime.Stage
module Rgraph = Rar_retime.Rgraph
module Outcome = Rar_retime.Outcome
module Error = Rar_retime.Error
module Suite = Rar_circuits.Suite
module Json = Rar_util.Json
module Deadline = Rar_util.Deadline
module Faults = Rar_resilience.Faults
module Period_search = Period_search

type vl = Vl.variant = Nvl | Evl | Rvl
type spec = Initial | Base | Grar | Vl of vl | Movable

type config = {
  spec : spec;
  model : Sta.model;
  solver : Difflp.engine option;
  c : float;
  post_swap : bool;
  movable_moves : int;
}

type extras = Lp_tail.extras =
  | No_extras
  | Retiming of {
      r : int array;
      lp_latches : float;
      modelled_non_ed : int list;
    }
  | Retype of {
      initial_ed : int list;
      forced_to_ed : int list;
      swapped_to_non_ed : int list;
      retype_rounds : int;
    }
  | Moves of {
      moves_tried : int;
      moves_kept : int;
      fixed_total_area : float;
    }

type result = {
  spec : spec;
  outcome : Outcome.t;
  stage : Stage.t;
  extras : extras;
  events : Difflp.fallback_event list;
  wall_s : float;
}

let all = [ Initial; Base; Vl Nvl; Vl Evl; Vl Rvl; Movable; Grar ]
let tabulated = [ Base; Vl Rvl; Grar ]

let name = function
  | Initial -> "initial"
  | Base -> "base"
  | Vl Nvl -> "nvl"
  | Vl Evl -> "evl"
  | Vl Rvl -> "rvl"
  | Movable -> "movable"
  | Grar -> "grar"

let label = function
  | Initial -> "Init"
  | Base -> "Base"
  | Vl v -> Vl.label v
  | Movable -> "Mov"
  | Grar -> "G"

let describe = function
  | Initial -> "un-retimed two-phase design (slaves at the sources)"
  | Base -> "resilience-blind minimum-area retiming"
  | Vl Nvl -> "virtual library, every master seeded non-error-detecting"
  | Vl Evl -> "virtual library, every master seeded error-detecting"
  | Vl Rvl -> "virtual library, near-critical masters seeded error-detecting"
  | Movable -> "RVL with the bounded movable-master local search"
  | Grar -> "G-RAR: coupled retiming and latch typing by min-cost flow"

let of_name s =
  match String.lowercase_ascii s with
  | "initial" -> Some Initial
  | "base" -> Some Base
  | "nvl" -> Some (Vl Nvl)
  | "evl" -> Some (Vl Evl)
  | "rvl" -> Some (Vl Rvl)
  | "movable" -> Some Movable
  | "grar" -> Some Grar
  | _ -> None

let config ?(model = Sta.Path_based) ?solver ?(c = 1.0) ?(post_swap = true)
    ?(movable_moves = 6) spec =
  { spec; model; solver; c; post_swap; movable_moves }

let model_name = function Sta.Path_based -> "path" | Sta.Gate_based -> "gate"

let model_of_name = function
  | "path" -> Ok Sta.Path_based
  | "gate" -> Ok Sta.Gate_based
  | s -> Error (Printf.sprintf "unknown model %S (path|gate)" s)

let solver_name = function
  | None -> "auto"
  | Some Difflp.Network_simplex -> "ns"
  | Some Difflp.Ssp -> "ssp"
  | Some Difflp.Closure -> "closure"

let solver_of_name = function
  | "network-simplex" | "ns" -> Ok (Some Difflp.Network_simplex)
  | "ssp" -> Ok (Some Difflp.Ssp)
  | "closure" -> Ok (Some Difflp.Closure)
  | "auto" -> Ok None
  | s -> Error (Printf.sprintf "unknown solver %S" s)

(* [c] prints exactly ([%h]): two configs share a key only when every
   field is equal. *)
let config_key (cfg : config) =
  Printf.sprintf "%s/%s/%s/c%h/swap%b/mov%d" (name cfg.spec)
    (model_name cfg.model) (solver_name cfg.solver) cfg.c cfg.post_swap
    cfg.movable_moves

let config_json (cfg : config) =
  Json.Obj
    [
      ("approach", Json.String (name cfg.spec));
      ("model", Json.String (model_name cfg.model));
      ("solver", Json.String (solver_name cfg.solver));
      ("c", Json.Float cfg.c);
      ("post_swap", Json.Bool cfg.post_swap);
      ("movable_moves", Json.Int cfg.movable_moves);
    ]

(* The engine boundary is where cooperative-cancellation and
   fault-injection exceptions become typed errors: nothing above this
   layer sees a raise. *)
let guard f =
  try f () with
  | Deadline.Expired { elapsed; phase } ->
    Error (Error.Timeout { elapsed; phase })
  | Faults.Injected detail -> Error (Error.Worker_crashed { detail })

(* An explicit [?deadline] wins; otherwise a [deadline=<ms>] fault
   profile arms one, so the whole tier-1 suite can run deadline-bound
   from the environment. When a cooperative-cancellation source exists
   (the CLI installed signal handlers, or the serve daemon is
   draining) an unbounded token is threaded instead of none at all:
   it costs one strided clock sample per 256 inner-loop iterations and
   gives [Deadline.request_cancel] check sites to fire from, so a
   SIGINT lands as [Error.Timeout] instead of killing the process
   before the [at_exit] trace export. *)
let effective_deadline deadline =
  match deadline with
  | Some _ -> deadline
  | None -> (
    match Faults.deadline_s () with
    | Some budget_s -> Some (Deadline.make ~budget_s)
    | None ->
      if Deadline.cancel_armed () then
        Some (Deadline.make ~budget_s:Float.infinity)
      else None)

let run ?deadline ?solve_cache (cfg : config) stage =
  if not (Float.is_finite cfg.c && cfg.c >= 0.) then
    Error
      (Error.Invalid_input
         (Printf.sprintf "Rar_engine.run: c must be finite and >= 0, got %g"
            cfg.c))
  else
  (* The span sits inside [guard] below via Fun.protect semantics:
     Trace.span records its End event before the exception reaches the
     guard, so traces stay balanced across Timeout / Worker_crashed. *)
  Rar_obs.Trace.span ("engine/run:" ^ name cfg.spec) @@ fun () ->
  let t0 = Rar_util.Clock.now_s () in
  let deadline = effective_deadline deadline in
  let events = ref [] in
  (* Every engine solves through this one closure. The movable search
     stays off the solve cache: a cached replay skips fault injection,
     so it would change the fallback events a faulted run reports. *)
  let solve_with cache g =
    Rgraph.solve ?deadline
      ~on_fallback:(fun e -> events := e :: !events)
      ?engine:cfg.solver ?cache g
  in
  let solve = solve_with solve_cache in
  guard @@ fun () ->
  let ran =
    match cfg.spec with
    | Initial -> Ok (stage, Outcome.of_initial ~c:cfg.c stage, No_extras)
    | Base -> Lp_tail.base ~solve ~c:cfg.c stage
    | Grar -> Lp_tail.grar ~solve ~c:cfg.c stage
    | Vl v ->
      Vl.run ~deadline ~solve ~post_swap:cfg.post_swap ~c:cfg.c v stage
    | Movable ->
      Movable.run ~deadline ~solve:(solve_with None)
        ~max_moves:cfg.movable_moves ~c:cfg.c stage
  in
  Result.map
    (fun (stage, outcome, extras) ->
      {
        spec = cfg.spec;
        outcome;
        stage;
        extras;
        events = List.rev !events;
        wall_s = Rar_util.Clock.now_s () -. t0;
      })
    ran

let stage_of ?model ?edits (p : Suite.prepared) =
  guard @@ fun () ->
  let cc, annot =
    match edits with
    | None -> (p.Suite.cc, None)
    | Some (a : Transform.Edit.applied) ->
      ( { p.Suite.cc with Transform.comb = a.Transform.Edit.net },
        Some a.Transform.Edit.annot )
  in
  Stage.make ?model ~source:p.Suite.two_phase ?annot ~lib:p.Suite.lib
    ~clocking:p.Suite.clocking cc

let run_prepared ?deadline (cfg : config) (p : Suite.prepared) =
  match
    Rar_obs.Trace.span ("engine/prepare:" ^ name cfg.spec) @@ fun () ->
    stage_of ~model:cfg.model p
  with
  | Error _ as e -> e
  | Ok stage -> run ?deadline cfg stage

let load_and_run ?deadline cfg circuit =
  match Suite.load circuit with
  | Error _ -> Error (Error.Unknown_circuit circuit)
  | Ok p -> run_prepared ?deadline cfg p

(* ------------------------------------------------------------------ *)
(* ECO sessions                                                        *)
(* ------------------------------------------------------------------ *)

(* A session owns the warm state of a resolve loop: the incrementally
   patched stage (always the *pre-sizing* analysis, so it stays
   byte-identical to [Stage.make] on the cumulatively edited netlist),
   the current EDL overhead (updated by [Set_c] edits) and the LP solve
   cache shared across resolves. Failed resolves leave all of it
   untouched. Single-owner: not thread-safe. *)
type session = {
  mutable s_cfg : config;
  mutable s_stage : Stage.t;
  solve_cache : Difflp.cache;
}

let open_session (cfg : config) stage =
  (match cfg.spec with
  | Movable ->
    invalid_arg
      "Rar_engine.open_session: the movable engine rebuilds the two-phase \
       netlist per move and cannot resolve incrementally"
  | Initial | Base | Grar | Vl _ -> ());
  { s_cfg = cfg; s_stage = stage; solve_cache = Difflp.create_cache () }

let session_config s = s.s_cfg

let resolve ?deadline (s : session) edits =
  Rar_obs.Trace.span "engine/resolve" @@ fun () ->
  guard @@ fun () ->
  let stage = s.s_stage in
  match
    (* [Edit.apply] validates against the frozen netlist and raises;
       the session boundary turns that into a typed error. Resized
       drives are additionally checked against the stage's library —
       the netlist layer accepts any drive >= 1, but an unavailable
       cell would only surface as an exception deep inside the
       incremental STA. *)
    (try
       let net = Stage.comb stage in
       List.iter
         (function
           | Transform.Edit.Resize { node; drive } -> (
             match Netlist.find net node with
             | None -> () (* Edit.apply reports the unknown name *)
             | Some id -> (
               match Netlist.kind net id with
               | Netlist.Gate { fn; _ } ->
                 ignore (Liberty.comb_cell (Stage.lib stage) fn ~drive)
               | Netlist.Input | Netlist.Output | Netlist.Seq _ -> ()))
           | Transform.Edit.Rewire _ | Transform.Edit.Annotate _
           | Transform.Edit.Set_c _ -> ())
         edits;
       Ok (Transform.Edit.apply ?annot:(Stage.annot stage) net edits)
     with Invalid_argument detail -> Error (Error.Invalid_input detail))
  with
  | Error _ as e -> e
  | Ok applied -> (
    let cfg =
      match applied.Transform.Edit.c with
      | None -> s.s_cfg
      | Some c -> { s.s_cfg with c }
    in
    match Stage.patch stage applied with
    | Error _ as e -> e
    | Ok stage' -> (
      match run ?deadline ~solve_cache:s.solve_cache cfg stage' with
      | Error _ as e -> e
      | Ok _ as ok ->
        (* Commit only on success; keep the pre-sizing stage so the
           next edit patches the same analysis a cold [Stage.make]
           would produce. *)
        s.s_cfg <- cfg;
        s.s_stage <- stage';
        ok))

let sink_names stage sinks =
  Json.List
    (List.map
       (fun s -> Json.String (Netlist.node_name (Stage.comb stage) s))
       sinks)

let extras_json stage = function
  | No_extras -> Json.Null
  | Retiming { r = _; lp_latches; modelled_non_ed } ->
    Json.Obj
      [
        ("kind", Json.String "retiming");
        ("lp_latches", Json.Float lp_latches);
        ("modelled_non_ed", sink_names stage modelled_non_ed);
      ]
  | Retype { initial_ed; forced_to_ed; swapped_to_non_ed; retype_rounds } ->
    Json.Obj
      [
        ("kind", Json.String "retype");
        ("initial_ed", sink_names stage initial_ed);
        ("forced_to_ed", sink_names stage forced_to_ed);
        ("swapped_to_non_ed", sink_names stage swapped_to_non_ed);
        ("retype_rounds", Json.Int retype_rounds);
      ]
  | Moves { moves_tried; moves_kept; fixed_total_area } ->
    Json.Obj
      [
        ("kind", Json.String "moves");
        ("moves_tried", Json.Int moves_tried);
        ("moves_kept", Json.Int moves_kept);
        ("fixed_total_area", Json.Float fixed_total_area);
      ]

let event_json (e : Difflp.fallback_event) =
  Json.Obj
    [
      ("failed", Json.String (Difflp.engine_name e.Difflp.failed));
      ("retried", Json.String (Difflp.engine_name e.Difflp.retried));
      ("reason", Json.String e.Difflp.reason);
    ]

let result_json ?circuit ?metrics cfg r =
  let o = r.outcome in
  let circuit_field =
    match circuit with
    | None -> []
    | Some c -> [ ("circuit", Json.String c) ]
  in
  (* Emitted only when a fallback actually fired, so the default-path
     JSON is byte-identical to the pre-resilience renderer. *)
  let events_field =
    match r.events with
    | [] -> []
    | evs -> [ ("solver_events", Json.List (List.map event_json evs)) ]
  in
  (* Same contract as [events_field]: the [metrics] object appears only
     when the caller passes a snapshot (the CLI's [--metrics]). *)
  let metrics_field =
    match metrics with None -> [] | Some m -> [ ("metrics", m) ]
  in
  Json.Obj
    ([ ("schema", Json.String "rar-run/1");
       ("approach", Json.String (name r.spec)) ]
    @ circuit_field
    @ [
        ("config", config_json cfg);
        ( "outcome",
          Json.Obj
            [
              ("n_slaves", Json.Int o.Outcome.n_slaves);
              ("n_masters", Json.Int o.Outcome.n_masters);
              ("ed_count", Json.Int (Outcome.ed_count o));
              ("ed_sinks", sink_names r.stage o.Outcome.ed_sinks);
              ("violations", sink_names r.stage o.Outcome.violations);
              ("seq_area", Json.Float o.Outcome.seq_area);
              ("comb_area", Json.Float o.Outcome.comb_area);
              ("total_area", Json.Float o.Outcome.total_area);
              ( "period",
                Json.Float (Clocking.period (Stage.clocking r.stage)) );
            ] );
        ("extras", extras_json r.stage r.extras);
      ]
    @ events_field
    @ metrics_field
    @ [ ("wall_s", Json.Float r.wall_s) ])
