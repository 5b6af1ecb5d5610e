module Netlist = Rar_netlist.Netlist
module Transform = Rar_netlist.Transform
module Stage = Rar_retime.Stage
module Outcome = Rar_retime.Outcome
module Error = Rar_retime.Error

(* The slave fed by a master (its only sequential fanout). *)
let slave_of net m =
  Array.fold_left
    (fun acc v ->
      match Netlist.kind net v with
      | Netlist.Seq Netlist.Slave when acc = None -> Some v
      | _ -> acc)
    None (Netlist.fanouts net m)

(* A master can retime backward across its driver [g] when [g] is a
   single-input gate whose only fanout is the master: the move is then
   one-for-one (no register duplication). *)
let backward_candidate net m =
  match Netlist.kind net m with
  | Netlist.Seq Netlist.Master -> (
    let g = (Netlist.fanins net m).(0) in
    match Netlist.kind net g with
    | Netlist.Gate _
      when Array.length (Netlist.fanins net g) = 1
           && Netlist.fanouts net g = [| m |] -> (
      match slave_of net m with Some s -> Some (g, s) | None -> None)
    | _ -> None)
  | _ -> None

(* Move the master/slave pair backward across [g]:
   x -> m -> s -> g -> (old readers of s). Every node keeps its id. *)
let apply_backward net m g s =
  let x = (Netlist.fanins net g).(0) in
  let readers =
    Array.map
      (fun v ->
        (v, Array.map (fun u -> if u = s then g else u) (Netlist.fanins net v)))
      (Netlist.fanouts net s)
  in
  Netlist.with_fanins net
    (Array.to_list readers @ [ (m, [| x |]); (g, [| s |]) ])

let run ~deadline ~solve ~max_moves ~c stage =
  match Stage.source stage with
  | None ->
    Error
      (Error.Invalid_input "movable: stage lacks its two-phase source netlist")
  | Some two_phase -> (
    let rvl = Vl.run ~deadline ~solve ~post_swap:true ~c Vl.Rvl in
    let run_moved net =
      Result.bind
        (Stage.make ~model:(Stage.model stage) ~lib:(Stage.lib stage)
           ~clocking:(Stage.clocking stage) (Transform.extract_comb net))
        rvl
    in
    let total_area (_, (o : Outcome.t), _) = o.Outcome.total_area in
    match rvl stage with
    | Error e -> Error e
    | Ok ((fixed_stage, fixed_outcome, _) as fixed) ->
      (* Candidate masters: the error-detecting ones (a backward move
         shortens their capture path). A move keeps every node id, so
         an id names the same master in every moved netlist. *)
      let orig = (Stage.cc fixed_stage).Transform.orig in
      let masters =
        List.filter_map
          (fun sink ->
            let ov = orig.(sink) in
            if Netlist.kind two_phase ov = Netlist.Seq Netlist.Master then
              Some ov
            else None)
          fixed_outcome.Outcome.ed_sinks
      in
      let rec search net best tried kept masters =
        Option.iter
          (fun d -> Rar_util.Deadline.force_check d ~phase:"movable-search")
          deadline;
        match masters with
        | [] -> (best, tried, kept)
        | _ when tried >= max_moves -> (best, tried, kept)
        | m :: rest -> (
          match backward_candidate net m with
          | None -> search net best tried kept rest
          | Some (g, s) -> (
            let net' = apply_backward net m g s in
            match run_moved net' with
            | Error _ -> search net best (tried + 1) kept rest
            | Ok r ->
              if total_area r < total_area best -. 1e-9 then
                search net' r (tried + 1) (kept + 1) rest
              else search net best (tried + 1) kept rest))
      in
      let (stage', outcome, _), moves_tried, moves_kept =
        search two_phase fixed 0 0 masters
      in
      Ok
        ( stage',
          outcome,
          Lp_tail.Moves
            {
              moves_tried;
              moves_kept;
              fixed_total_area = fixed_outcome.Outcome.total_area;
            } ))
