module Transform = Rar_netlist.Transform
module Liberty = Rar_liberty.Liberty
module Clocking = Rar_sta.Clocking

type t = {
  placements : Transform.placement list;
  n_slaves : int;
  n_masters : int;
  ed_sinks : int list;
  violations : int list;
  arrivals : (int * float) array;
  edl_overhead : float;
  seq_area : float;
  comb_area : float;
  total_area : float;
}

let account ?ed ~c stage placements arr =
  Rar_obs.Trace.span "outcome/assemble" @@ fun () ->
  let net = Stage.comb stage in
  let clocking = Stage.clocking stage in
  let sinks = Stage.sinks stage in
  let arrivals = Array.map (fun s -> (s, arr.(s))) sinks in
  let needs_ed =
    Array.to_list arrivals
    |> List.filter_map (fun (s, a) ->
           if Clocking.past_period clocking a then Some s else None)
  in
  let ed_sinks = match ed with Some e -> e | None -> needs_ed in
  let ed_set = Hashtbl.create (1 + List.length ed_sinks) in
  List.iter (fun s -> Hashtbl.replace ed_set s ()) ed_sinks;
  let violations =
    (Array.to_list arrivals
    |> List.filter_map (fun (s, a) ->
           if Clocking.past_max_delay clocking a then Some s else None))
    @ List.filter (fun s -> not (Hashtbl.mem ed_set s)) needs_ed
    |> List.sort_uniq compare
  in
  let lib = Stage.lib stage in
  let latch_area = (Liberty.latch lib).Liberty.seq_area in
  let n_slaves = List.length placements in
  let n_masters = Array.length sinks in
  let seq_area =
    (float_of_int (n_slaves + n_masters) *. latch_area)
    +. (float_of_int (List.length ed_sinks) *. c *. latch_area)
  in
  let comb_area = Liberty.comb_area lib net in
  {
    placements;
    n_slaves;
    n_masters;
    ed_sinks;
    violations;
    arrivals;
    edl_overhead = c;
    seq_area;
    comb_area;
    total_area = seq_area +. comb_area;
  }

let assemble ?ed ~c stage placements =
  account ?ed ~c stage placements
    (Stage.latched_arrivals stage
       (Transform.pin_index (Stage.comb stage) placements))

let of_initial ~c stage =
  account ~c stage
    (Transform.initial_placements (Stage.comb stage))
    (Stage.initial_arrivals stage)

let ed_count t = List.length t.ed_sinks
