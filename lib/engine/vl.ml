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

let seed_types stage variant =
  let sinks = Array.to_list (Stage.sinks stage) in
  match variant with
  | Evl -> sinks
  | Nvl -> []
  | Rvl -> Stage.near_critical_initial stage

let run ~deadline ~solve ~post_swap ~c variant stage =
  let sinks = Array.to_list (Stage.sinks stage) in
  let cv = Netlist.compact (Stage.comb stage) in
  let n_pins = Array.length cv.Netlist.Compact.fanin in
  let initial_ed = seed_types stage variant in
  let clocking = Stage.clocking stage in
  (* Masters that can never avoid the window cannot honour a non-ED
     seed; flip them before retiming, as the tool's timing engine
     would. *)
  let hopeless s =
    match Stage.classify stage s with
    | Stage.Always_ed -> true
    | Stage.Never_ed | Stage.Target _ -> false
  in
  (* The tail checks the typed deadlines: a non-ED master past the
     period fails the run, so no master needs a mandatory fix. The
     optional swap sends the typed masters that meet the period back
     to normal latches. *)
  let finish typed_ed rounds r =
    let typed_ed = List.sort_uniq compare typed_ed in
    let typed_tbl = Hashtbl.create (1 + List.length typed_ed) in
    List.iter (fun s -> Hashtbl.replace typed_tbl s ()) typed_ed;
    Lp_tail.finish ~approach:(label variant)
      ~meets_period:(fun s -> not (Hashtbl.mem typed_tbl s))
      ~assemble:(fun placements arr ->
        let swapped_to_non_ed, ed_final =
          if post_swap then
            List.partition
              (fun s -> not (Clocking.past_period clocking arr.(s)))
              typed_ed
          else ([], typed_ed)
        in
        ( Outcome.account ~ed:ed_final ~c stage placements arr,
          Lp_tail.Retype
            {
              initial_ed;
              forced_to_ed = [];
              swapped_to_non_ed;
              retype_rounds = rounds;
            } ))
      stage r
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
      (* Setup constraints the non-ED masters impose on the retimer:
         no slave on their window pins, where A exceeds the period (nor
         a source's initial slave over one). One set for the round. *)
      let forbidden = Array.make n_pins false in
      List.iter
        (fun s ->
          Array.iter
            (fun p -> forbidden.(p) <- true)
            (Stage.window_pins stage s))
        non_ed;
      let g = Rgraph.build ~forbidden_pins:forbidden ~bias_early:true stage in
      match solve g with
      | Ok r -> finish ed_set rounds r
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
