module Clocking = Rar_sta.Clocking
module Difflp = Rar_flow.Difflp

type t = {
  outcome : Outcome.t;
  stage : Stage.t;
  r : int array;
  modelled_non_ed : int list;
  lp_latches : float;
}

let run_on_stage ?deadline ?on_fallback ?engine ?solve_cache ~c stage =
  let g = Rgraph.build ~edl_overhead:c stage in
  match Rgraph.solve ?deadline ?on_fallback ?engine ?cache:solve_cache g with
  | Error _ as e -> e
  | Ok r -> (
    let placements = Rgraph.placements_of g r in
    match Rgraph.check_legal g placements with
    | Error e -> Error e
    | Ok () -> (
      let modelled_non_ed =
        List.filter_map
          (fun (s, pv) -> if r.(pv) = -1 then Some s else None)
          (Rgraph.p_vars g)
      in
      let lp_latches = Rgraph.modelled_latch_count g r in
      (* Size-only fix: paths the model made non-error-detecting must
         truly avoid the resiliency window; everything else only needs
         the hard max-delay bound. *)
      let clocking = Stage.clocking stage in
      let period = Clocking.period clocking in
      let limit = Clocking.max_delay clocking in
      let non_ed_set = Hashtbl.create (1 + List.length modelled_non_ed) in
      List.iter (fun s -> Hashtbl.replace non_ed_set s ()) modelled_non_ed;
      let deadline s = if Hashtbl.mem non_ed_set s then period else limit in
      match Sizing.fix ~deadlines:deadline stage placements with
      | Error _ as e -> e
      | Ok stage' ->
        let outcome = Outcome.assemble ~c stage' placements in
        if outcome.Outcome.violations <> [] then
          Error
            (Error.Timing_violations
               {
                 approach = "G-RAR";
                 count = List.length outcome.Outcome.violations;
               })
        else Ok { outcome; stage = stage'; r; modelled_non_ed; lp_latches }))
