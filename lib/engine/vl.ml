module Netlist = Rar_netlist.Netlist
module Clocking = Rar_sta.Clocking
module Stage = Rar_retime.Stage
module Rgraph = Rar_retime.Rgraph
module Outcome = Rar_retime.Outcome
module Error = Rar_retime.Error

let src = Logs.Src.create "rar.vl" ~doc:"Virtual-library retiming"

module Log = (val Logs.src_log src : Logs.LOG)

type variant = Nvl | Evl | Rvl

let label = function Nvl -> "NVL" | Evl -> "EVL" | Rvl -> "RVL"

let eps = 1e-9

(* Setup constraints a non-ED master imposes on the retimer: no slave
   latch on any cone edge whose A exceeds the period, and no source may
   keep its shared initial latch if that would cover such an edge. *)
let forbidden_for stage sink =
  let net = Stage.comb stage in
  let edges = Stage.window_edges stage sink in
  List.sort_uniq compare
    (List.concat_map
       (fun (u, v) ->
         if Netlist.kind net u = Netlist.Input then [ (u, v); (u, u) ]
         else [ (u, v) ])
       edges)

let seed_types stage variant =
  let sinks = Array.to_list (Stage.sinks stage) in
  match variant with
  | Evl -> sinks
  | Nvl -> []
  | Rvl -> Stage.near_critical_initial stage

let run ~deadline ~solve ~post_swap ~c variant stage =
  let sinks = Array.to_list (Stage.sinks stage) in
  let initial_ed = seed_types stage variant in
  let period = Clocking.period (Stage.clocking stage) in
  (* Masters that can never avoid the window cannot honour a non-ED
     seed; flip them before retiming, as the tool's timing engine
     would. *)
  let hopeless s =
    match Stage.classify stage s with
    | Stage.Always_ed -> true
    | Stage.Never_ed | Stage.Target _ -> false
  in
  (* Size-only incremental compile against the typed deadlines, then
     the mandatory fixes and the optional swap on the verified
     arrivals. *)
  let finish typed_ed rounds g r =
    let typed_tbl = Hashtbl.create (1 + List.length typed_ed) in
    List.iter (fun s -> Hashtbl.replace typed_tbl s ()) typed_ed;
    Lp_tail.finish ~approach:(label variant)
      ~meets_period:(fun s -> not (Hashtbl.mem typed_tbl s))
      ~assemble:(fun stage' placements ->
        (* Mandatory fixes: non-ED masters still inside the window
           become error-detecting. *)
        let tmp = Outcome.assemble ~ed:typed_ed ~c stage' placements in
        let arrival_tbl = Hashtbl.create (Array.length tmp.Outcome.arrivals) in
        Array.iter
          (fun (s, a) -> Hashtbl.replace arrival_tbl s a)
          tmp.Outcome.arrivals;
        let arrival s =
          Option.value ~default:0. (Hashtbl.find_opt arrival_tbl s)
        in
        let forced_to_ed =
          List.filter
            (fun s ->
              (not (Hashtbl.mem typed_tbl s)) && arrival s > period +. eps)
            sinks
        in
        let ed_fixed = List.sort_uniq compare (typed_ed @ forced_to_ed) in
        (* Optional saving swap: EDL masters that meet the non-ED setup
           go back to normal latches. *)
        let swapped_to_non_ed =
          if post_swap then
            List.filter (fun s -> arrival s <= period +. eps) ed_fixed
          else []
        in
        let swapped_tbl = Hashtbl.create (1 + List.length swapped_to_non_ed) in
        List.iter (fun s -> Hashtbl.replace swapped_tbl s ()) swapped_to_non_ed;
        let ed_final =
          List.filter (fun s -> not (Hashtbl.mem swapped_tbl s)) ed_fixed
        in
        ( Outcome.assemble ~ed:ed_final ~c stage' placements,
          Lp_tail.Retype
            {
              initial_ed;
              forced_to_ed;
              swapped_to_non_ed;
              retype_rounds = rounds;
            } ))
      stage g r
  in
  let rec attempt ed_set rounds =
    Option.iter
      (fun d -> Rar_util.Deadline.force_check d ~phase:"vl-retype")
      deadline;
    if rounds > List.length sinks + 1 then
      Error (Error.Retype_diverged { rounds })
    else begin
      let ed_tbl = Hashtbl.create (1 + List.length ed_set) in
      List.iter (fun s -> Hashtbl.replace ed_tbl s ()) ed_set;
      let non_ed = List.filter (fun s -> not (Hashtbl.mem ed_tbl s)) sinks in
      (* Per-sink setup-constraint prep reads only the stage's cached
         window edges, so it fans out over the pool; the merge
         concatenates in sink order, keeping the constraint emission
         order identical at any pool size. *)
      let forbidden =
        Rar_util.Pool.map_adaptive (Array.of_list non_ed)
          (forbidden_for stage)
        |> Array.to_list |> List.concat
      in
      let g = Rgraph.build ~forbidden_edges:forbidden ~bias_early:true stage in
      match solve g with
      | Ok r -> finish ed_set rounds g r
      | Error _ ->
        (* The typed constraints are collectively unsatisfiable: flip
           the non-ED master with the longest path, like a designer
           chasing the worst violator. *)
        let worst =
          List.fold_left
            (fun acc s ->
              match acc with
              | None -> Some s
              | Some b ->
                if Stage.max_path stage s > Stage.max_path stage b then Some s
                else acc)
            None non_ed
        in
        (match worst with
        | None ->
          Error
            (Error.Infeasible_lp
               { detail = "infeasible even with every master error-detecting" })
        | Some s ->
          Log.debug (fun m ->
              m "retype %s to error-detecting"
                (Netlist.node_name (Stage.comb stage) s));
          attempt (s :: ed_set) (rounds + 1))
    end
  in
  attempt (List.sort_uniq compare (initial_ed @ List.filter hopeless sinks)) 0
