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

type solution = {
  r : int array;
  lp_latches : float;
  modelled_non_ed : int list;
}

let finish ~approach ~meets_period ~assemble stage r =
  let placements = Rgraph.placements_on stage r in
  match Rgraph.check_legal_on stage placements with
  | Error e -> Error e
  | Ok () -> (
    let clocking = Stage.clocking stage in
    let period = Clocking.period clocking in
    let limit = Clocking.max_delay clocking in
    let deadlines s = if meets_period s then period else limit in
    match Sizing.check ~approach ~deadlines stage placements with
    | Error e -> Error e
    | Ok arr ->
      let outcome, extras = assemble placements arr in
      Ok (stage, outcome, extras))

(* Base builds no [P(t)] vertices, so it models no sink non-ED and
   every deadline is the max-delay bound. *)
let retiming ~approach ~solve ?solved ~c build stage =
  let solved =
    match solved with
    | Some sol -> Ok sol
    | None -> (
      let g = build stage in
      match solve g with
      | Error e -> Error e
      | Ok r ->
        Ok
          {
            r;
            lp_latches = Rgraph.modelled_latch_count g r;
            modelled_non_ed =
              List.filter_map
                (fun (s, pv) -> if r.(pv) = -1 then Some s else None)
                (Rgraph.p_vars g);
          })
  in
  match solved with
  | Error e -> Error e
  | Ok { r; lp_latches; modelled_non_ed } ->
    let non_ed = Hashtbl.create (1 + List.length modelled_non_ed) in
    List.iter (fun s -> Hashtbl.replace non_ed s ()) modelled_non_ed;
    finish ~approach ~meets_period:(Hashtbl.mem non_ed)
      ~assemble:(fun placements arr ->
        ( Outcome.account ~c stage placements arr,
          Retiming { r; lp_latches; modelled_non_ed } ))
      stage r

let base ?solved ~solve ~c stage =
  retiming ~approach:"Base" ~solve ?solved ~c
    (Rgraph.build ~bias_early:true) stage

let grar ?solved ~solve ~c stage =
  retiming ~approach:"G-RAR" ~solve ?solved ~c
    (Rgraph.build ~edl_overhead:c) stage
