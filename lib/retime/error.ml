type t =
  | Unknown_circuit of string
  | Illegal_stage of { node : string }
  | Untimeable_sink of { sink : string; limit : float }
  | Infeasible_lp of { detail : string }
  | Illegal_placement of { detail : string }
  | Timing_violations of { approach : string; count : int }
  | Retype_diverged of { rounds : int }
  | Search_failed of { detail : string }
  | Invalid_input of string
  | Timeout of { elapsed : float; phase : string }
  | Worker_crashed of { detail : string }

let to_string = function
  | Unknown_circuit name -> Printf.sprintf "unknown circuit %S" name
  | Illegal_stage { node } ->
    Printf.sprintf
      "node %S violates both Constraint (6) and (7); no legal slave position"
      node
  | Untimeable_sink { sink; limit } ->
    Printf.sprintf "sink %S cannot meet max delay %.4f" sink limit
  | Infeasible_lp { detail } -> Printf.sprintf "infeasible LP: %s" detail
  | Illegal_placement { detail } ->
    Printf.sprintf "illegal placement: %s" detail
  | Timing_violations { approach; count } ->
    Printf.sprintf "%s: %d sinks miss their timing deadline" approach count
  | Retype_diverged { rounds } ->
    Printf.sprintf
      "virtual-library retyping failed to converge after %d rounds" rounds
  | Search_failed { detail } -> Printf.sprintf "period search: %s" detail
  | Invalid_input detail -> detail
  | Timeout { elapsed; phase } ->
    Printf.sprintf "deadline exceeded after %.3fs (in %s)" elapsed phase
  | Worker_crashed { detail } ->
    Printf.sprintf "worker task crashed: %s" detail

let kind = function
  | Unknown_circuit _ -> "unknown_circuit"
  | Illegal_stage _ -> "illegal_stage"
  | Untimeable_sink _ -> "untimeable_sink"
  | Infeasible_lp _ -> "infeasible_lp"
  | Illegal_placement _ -> "illegal_placement"
  | Timing_violations _ -> "timing_violations"
  | Retype_diverged _ -> "retype_diverged"
  | Search_failed _ -> "search_failed"
  | Invalid_input _ -> "invalid_input"
  | Timeout _ -> "timeout"
  | Worker_crashed _ -> "worker_crashed"
