module Clocking = Rar_sta.Clocking
module Difflp = Rar_flow.Difflp

type t = {
  outcome : Outcome.t;
  stage : Stage.t;
  r : int array;
  lp_latches : float;
}

let run_on_stage ?deadline ?on_fallback ?engine ?solve_cache ~c stage =
  let g = Rgraph.build ~bias_early:true stage in
  match Rgraph.solve ?deadline ?on_fallback ?engine ?cache:solve_cache g with
  | Error _ as e -> e
  | Ok r -> (
    let placements = Rgraph.placements_of g r in
    match Rgraph.check_legal g placements with
    | Error e -> Error e
    | Ok () -> (
      let lp_latches = Rgraph.modelled_latch_count g r in
      let limit = Clocking.max_delay (Stage.clocking stage) in
      match Sizing.fix ~deadlines:(fun _ -> limit) stage placements with
      | Error _ as e -> e
      | Ok stage' ->
        let outcome = Outcome.assemble ~c stage' placements in
        if outcome.Outcome.violations <> [] then
          Error
            (Error.Timing_violations
               {
                 approach = "Base";
                 count = List.length outcome.Outcome.violations;
               })
        else Ok { outcome; stage = stage'; r; lp_latches }))
