module Transform = Rar_netlist.Transform
module Clocking = Rar_sta.Clocking
module Stage = Rar_retime.Stage
module Rgraph = Rar_retime.Rgraph
module Sizing = Rar_retime.Sizing
module Outcome = Rar_retime.Outcome
module Error = Rar_retime.Error

type extras =
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

type solve = Rgraph.t -> (int array, Error.t) result
type run = (Stage.t * Outcome.t * extras, Error.t) result

let finish ~approach ~meets_period ~assemble stage g r =
  let placements = Rgraph.placements_of g r in
  match Rgraph.check_legal g placements with
  | Error e -> Error e
  | Ok () -> (
    (* Size-only fix against the per-sink deadlines. *)
    let clocking = Stage.clocking stage in
    let period = Clocking.period clocking in
    let limit = Clocking.max_delay clocking in
    let deadlines s = if meets_period s then period else limit in
    match Sizing.fix ~deadlines stage placements with
    | Error e -> Error e
    | Ok stage' -> (
      let outcome, extras = assemble stage' placements in
      match outcome.Outcome.violations with
      | [] -> Ok (stage', outcome, extras)
      | vs ->
        Error (Error.Timing_violations { approach; count = List.length vs })))

(* Base builds no [P(t)] vertices, so it models no sink non-ED and
   every deadline is the max-delay bound. *)
let retiming ~approach ~solve ~c g stage =
  match solve g with
  | Error e -> Error e
  | Ok r ->
    let modelled_non_ed =
      List.filter_map
        (fun (s, pv) -> if r.(pv) = -1 then Some s else None)
        (Rgraph.p_vars g)
    in
    let lp_latches = Rgraph.modelled_latch_count g r in
    let non_ed = Hashtbl.create (1 + List.length modelled_non_ed) in
    List.iter (fun s -> Hashtbl.replace non_ed s ()) modelled_non_ed;
    finish ~approach ~meets_period:(Hashtbl.mem non_ed)
      ~assemble:(fun stage' placements ->
        ( Outcome.assemble ~c stage' placements,
          Retiming { r; lp_latches; modelled_non_ed } ))
      stage g r

let base ~solve ~c stage =
  retiming ~approach:"Base" ~solve ~c (Rgraph.build ~bias_early:true stage)
    stage

let grar ~solve ~c stage =
  retiming ~approach:"G-RAR" ~solve ~c (Rgraph.build ~edl_overhead:c stage)
    stage
