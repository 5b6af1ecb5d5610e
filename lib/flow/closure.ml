type instance = {
  n : int;
  profit : float array;
  implications : (int * int) list;
  must_select : int list;
  must_reject : int list;
}

type outcome = {
  selected : bool array;
  best_profit : float;
  certificate : (unit, string) result;
}

let solve ?deadline inst =
  if Array.length inst.profit <> inst.n then
    invalid_arg "Closure.solve: profit length mismatch";
  let source = inst.n and sink = inst.n + 1 in
  let edges =
    Array.fold_left (fun k p -> if p <> 0. then k + 1 else k) 0 inst.profit
    + List.length inst.implications
    + List.length inst.must_select
    + List.length inst.must_reject
  in
  let mf = Maxflow.create ~edges ~n:(inst.n + 2) () in
  (* "Infinite" capacity: larger than any finite cut. *)
  let inf_cap =
    let s = Array.fold_left (fun acc p -> acc +. Float.abs p) 1. inst.profit in
    1e6 *. s
  in
  Array.iteri
    (fun v p ->
      if p > 0. then Maxflow.add_edge mf ~src:source ~dst:v ~cap:p
      else if p < 0. then Maxflow.add_edge mf ~src:v ~dst:sink ~cap:(-.p))
    inst.profit;
  List.iter
    (fun (v, u) ->
      if v <> u then Maxflow.add_edge mf ~src:v ~dst:u ~cap:inf_cap)
    inst.implications;
  List.iter
    (fun v -> Maxflow.add_edge mf ~src:source ~dst:v ~cap:inf_cap)
    inst.must_select;
  List.iter
    (fun v -> Maxflow.add_edge mf ~src:v ~dst:sink ~cap:inf_cap)
    inst.must_reject;
  let cut = Maxflow.run ?deadline mf ~source ~sink in
  if cut >= inf_cap *. 0.5 then
    Error "Closure.solve: contradictory forced selections"
  else begin
    let side = Maxflow.min_cut_source_side mf ~source in
    let certificate = Maxflow.certify mf ~source ~sink ~side in
    let selected = Array.sub side 0 inst.n in
    let best_profit = ref 0. in
    Array.iteri
      (fun v s -> if s then best_profit := !best_profit +. inst.profit.(v))
      selected;
    Ok { selected; best_profit = !best_profit; certificate }
  end
