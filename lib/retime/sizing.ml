module Netlist = Rar_netlist.Netlist
module Transform = Rar_netlist.Transform
module Liberty = Rar_liberty.Liberty
module Sta = Rar_sta.Sta

let eps = 1e-9

let arrivals stage placements =
  let latched = Hashtbl.create 64 in
  List.iter
    (fun p ->
      List.iter (fun pin -> Hashtbl.replace latched pin ()) p.Transform.latched)
    placements;
  Sta.forward_with_latches (Stage.sta stage) ~clocking:(Stage.clocking stage)
    ~latch:(Stage.slave_latch stage)
    ~latched:(fun ~v ~pin -> Hashtbl.mem latched (v, pin))

let violating ~deadlines stage placements =
  let arr = arrivals stage placements in
  Array.to_list (Stage.sinks stage)
  |> List.filter (fun s -> Liberty.arc_max arr.(s) > deadlines s +. eps)

(* Rank the gates of a violating sink's cone by criticality
   (D^f + D^b), and return those not yet at the maximum drive. *)
let upsize_candidates stage sink =
  let net = Stage.comb stage in
  let sta = Stage.sta stage in
  let db = Sta.backward_scalar sta ~sink in
  let max_drive =
    List.fold_left max 1 (Liberty.drives (Stage.lib stage))
  in
  let cands = ref [] in
  for v = 0 to Netlist.node_count net - 1 do
    match Netlist.kind net v with
    | Netlist.Gate { drive; _ } when drive < max_drive ->
      if db.(v) > neg_infinity then
        cands := (Sta.df sta v +. db.(v), v) :: !cands
    | Netlist.Gate _ | Netlist.Input | Netlist.Output | Netlist.Seq _ -> ()
  done;
  List.sort (fun (a, _) (b, _) -> compare b a) !cands |> List.map snd

let next_drive lib d =
  let rec go = function
    | [] -> d
    | x :: rest -> if x > d then x else go rest
  in
  go (Liberty.drives lib)

let fix ~deadlines stage placements =
  let rec round stage best best_count k =
    if k = 0 then Ok best
    else begin
      let bad = violating ~deadlines stage placements in
      let count = List.length bad in
      let best, best_count =
        if count < best_count then (stage, count) else (best, best_count)
      in
      if count = 0 then Ok stage
      else begin
        (* Upsize up to 8 critical gates drawn from the worst sinks. *)
        let lib = Stage.lib stage in
        let net = Stage.comb stage in
        let chosen = Hashtbl.create 8 in
        List.iter
          (fun s ->
            if Hashtbl.length chosen < 8 then
              List.iteri
                (fun i v ->
                  if i < 3 && Hashtbl.length chosen < 8 then
                    Hashtbl.replace chosen v ())
                (upsize_candidates stage s))
          bad;
        if Hashtbl.length chosen = 0 then Ok best (* drives saturated *)
        else begin
          let net' =
            Hashtbl.fold
              (fun v () acc ->
                match Netlist.kind acc v with
                | Netlist.Gate { drive; _ } ->
                  Netlist.with_drive acc v (next_drive lib drive)
                | Netlist.Input | Netlist.Output | Netlist.Seq _ -> acc)
              chosen net
          in
          let cc = Stage.cc stage in
          let cc' = { cc with Transform.comb = net' } in
          match
            Stage.make ~model:(Stage.model stage)
              ?source:(Stage.source stage) ?annot:(Stage.annot stage) ~lib
              ~clocking:(Stage.clocking stage) cc'
          with
          | Error _ as e -> e
          | Ok stage' -> round stage' best best_count (k - 1)
        end
      end
    end
  in
  round stage stage max_int 12
