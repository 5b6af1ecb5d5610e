module Netlist = Rar_netlist.Netlist
module Transform = Rar_netlist.Transform
module Liberty = Rar_liberty.Liberty
module Sta = Rar_sta.Sta
module Clocking = Rar_sta.Clocking
module Stage = Rar_retime.Stage
module Rgraph = Rar_retime.Rgraph
module Outcome = Rar_retime.Outcome
module Error = Rar_retime.Error

type search = { p : float; iterations : int; lo : float; hi : float }

let worst_arrival ~model ~lib cc =
  let sta = Sta.analyse lib model cc.Transform.comb in
  Array.fold_left
    (fun acc s -> Float.max acc (Sta.arrival_at_sink sta s))
    0.
    (Netlist.outputs cc.Transform.comb)

(* Generic monotone binary search over P: [feasible p] must be monotone
   (false ... false true ... true). It stops at a relative bracket
   width of 1%. *)
let search ~model ~lib ~feasible cc =
  let base = worst_arrival ~model ~lib cc in
  if base <= 0. then Error (Error.Search_failed { detail = "empty circuit" })
  else begin
    (* Bracket: grow hi until feasible (the constraints all loosen with
       P), with a sanity cap. *)
    let rec grow hi k =
      if k = 0 then None
      else if feasible hi then Some hi
      else grow (hi *. 1.5) (k - 1)
    in
    match grow base 24 with
    | None ->
      Error (Error.Search_failed { detail = "no feasible period found" })
    | Some hi0 ->
      let lo = ref (base /. 4.) and hi = ref hi0 in
      let iterations = ref 0 in
      while (!hi -. !lo) /. !hi > 0.01 do
        incr iterations;
        let mid = 0.5 *. (!lo +. !hi) in
        if feasible mid then hi := mid else lo := mid
      done;
      Ok { p = !hi; iterations = !iterations; lo = !lo; hi = !hi }
  end

let stage_ok ~model ~lib cc p =
  match Stage.make ~model ~lib ~clocking:(Clocking.of_p p) cc with
  | Error _ -> None
  | Ok st -> Some st

(* Each probe is one plain solve through the shared LP tail: no
   deadline, fallback hook or cache, on the default flow solver. *)
let solve g = Rgraph.solve g

let min_feasible ?(model = Sta.Path_based) ~lib cc =
  let feasible p =
    match stage_ok ~model ~lib cc p with
    | None -> false
    | Some st -> Result.is_ok (Lp_tail.base ~solve ~c:1.0 st)
  in
  search ~model ~lib ~feasible cc

let min_detection_free ?(model = Sta.Path_based) ~lib cc =
  let feasible p =
    match stage_ok ~model ~lib cc p with
    | None -> false
    | Some st -> (
      (* any c > 0 works: we only ask whether the EDL count reaches 0 *)
      match Lp_tail.grar ~solve ~c:1.0 st with
      | Ok (_, o, _) -> Outcome.ed_count o = 0
      | Error _ -> false)
  in
  search ~model ~lib ~feasible cc
