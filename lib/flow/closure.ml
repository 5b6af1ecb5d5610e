type instance = {
  n : int;
  profit : float array;
  m : int;
  u : int array;
  v : int array;
  bound : int array;
  reference : int;
}

type outcome = {
  selected : bool array;
  best_profit : float;
  certificate : (unit, string) result;
}

let solve ?deadline inst =
  if Array.length inst.profit <> inst.n then
    invalid_arg "Closure.solve: profit length mismatch";
  let { m; u; v; bound; _ } = inst in
  if m < 0 || m > Array.length u || m > Array.length v || m > Array.length bound
  then invalid_arg "Closure.solve: constraint count mismatch";
  (* One pass sizes the network and finds the last constraint outside
     the window, if any. *)
  let implications = ref 0 and forced = ref 0 and outside = ref (-1) in
  for i = 0 to m - 1 do
    let b = bound.(i) in
    if b = 0 then incr implications
    else if b = -1 then incr forced
    else if b < -1 then outside := i
  done;
  if !outside >= 0 then
    let i = !outside in
    Error
      (Printf.sprintf
         "constraint r(%d) - r(%d) <= %d is outside the binary window" u.(i)
         v.(i) bound.(i))
  else begin
    let source = inst.n and sink = inst.n + 1 in
    let edges =
      Array.fold_left (fun k p -> if p <> 0. then k + 1 else k) 0 inst.profit
      + !implications + (2 * !forced) + 1
    in
    let mf = Maxflow.create ~edges ~n:(inst.n + 2) () in
    (* "Infinite" capacity: larger than any finite cut. *)
    let inf_cap =
      let s = Array.fold_left (fun acc p -> acc +. Float.abs p) 1. inst.profit in
      1e6 *. s
    in
    Array.iteri
      (fun x p ->
        if p > 0. then Maxflow.add_edge mf ~src:source ~dst:x ~cap:p
        else if p < 0. then Maxflow.add_edge mf ~src:x ~dst:sink ~cap:(-.p))
      inst.profit;
    for i = m - 1 downto 0 do
      if bound.(i) = 0 && v.(i) <> u.(i) then
        Maxflow.add_edge mf ~src:v.(i) ~dst:u.(i) ~cap:inf_cap
    done;
    for i = m - 1 downto 0 do
      if bound.(i) = -1 then
        Maxflow.add_edge mf ~src:source ~dst:u.(i) ~cap:inf_cap
    done;
    for i = m - 1 downto 0 do
      if bound.(i) = -1 then Maxflow.add_edge mf ~src:v.(i) ~dst:sink ~cap:inf_cap
    done;
    Maxflow.add_edge mf ~src:inst.reference ~dst:sink ~cap:inf_cap;
    let cut = Maxflow.run ?deadline mf ~source ~sink in
    if cut >= inf_cap *. 0.5 then
      Error "Closure.solve: contradictory forced selections"
    else begin
      let side = Maxflow.min_cut_source_side mf ~source in
      let certificate = Maxflow.certify mf ~source ~sink ~side in
      let selected = Array.sub side 0 inst.n in
      let best_profit = ref 0. in
      Array.iteri
        (fun x s -> if s then best_profit := !best_profit +. inst.profit.(x))
        selected;
      Ok { selected; best_profit = !best_profit; certificate }
    end
  end
