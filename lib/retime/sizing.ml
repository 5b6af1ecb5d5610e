module Transform = Rar_netlist.Transform

let check ~approach ~deadlines stage placements =
  Rar_obs.Trace.span "sizing/fix" @@ fun () ->
  let arr =
    Stage.latched_arrivals stage
      (Transform.pin_index (Stage.comb stage) placements)
  in
  let late =
    Array.fold_left
      (fun n s ->
        if arr.(s) > deadlines s +. Rar_sta.Clocking.tolerance then n + 1
        else n)
      0 (Stage.sinks stage)
  in
  if late = 0 then Ok arr
  else Error (Error.Timing_violations { approach; count = late })

let fix ~deadlines stage placements =
  Result.map
    (fun _ -> stage)
    (check ~approach:"Sizing.fix" ~deadlines stage placements)
