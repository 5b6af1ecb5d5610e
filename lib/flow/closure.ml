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

(* One pass over the bounds: counts the network arcs the constraints
   need and checks the binary window. A bound below -1 is outside it,
   and so is a node other than the reference that lacks
   [x - reference <= b] for some [b <= 0] or [reference - x <= b] for
   some [b <= 1]: only with both is every feasible normalised solution
   in {-1, 0}, which is what makes every bound of 1 or more vacuous.
   An implication (bound 0) is one arc and a forced selection (bound
   -1) two, except that no arc leaves the reference: it is always on
   the sink side, so such an arc never crosses a cut. *)
let scan inst =
  if Array.length inst.profit <> inst.n then
    invalid_arg "Closure.solve: profit length mismatch";
  let { n; m; u; v; bound; reference; _ } = inst in
  if m < 0 || m > Array.length u || m > Array.length v || m > Array.length bound
  then invalid_arg "Closure.solve: constraint count mismatch";
  let upper = Bytes.make n '\000' and lower = Bytes.make n '\000' in
  let arcs = ref 0 and outside = ref (-1) in
  for i = 0 to m - 1 do
    let b = bound.(i) in
    let from_ref = if v.(i) = reference then 0 else 1 in
    if b = 0 then arcs := !arcs + from_ref
    else if b = -1 then arcs := !arcs + 1 + from_ref
    else if b < -1 then outside := i;
    if v.(i) = reference && b <= 0 then Bytes.set upper u.(i) '\001';
    if u.(i) = reference && b <= 1 then Bytes.set lower v.(i) '\001'
  done;
  let unbounded = ref (-1) and x = ref 0 in
  while !unbounded < 0 && !x < n do
    if !x <> reference
       && (Bytes.get upper !x = '\000' || Bytes.get lower !x = '\000')
    then unbounded := !x;
    incr x
  done;
  if !outside >= 0 then
    let i = !outside in
    Error
      (Printf.sprintf
         "constraint r(%d) - r(%d) <= %d is outside the binary window" u.(i)
         v.(i) bound.(i))
  else if !unbounded >= 0 then
    Error
      (Printf.sprintf
         "r(%d) is not confined to {-1, 0} against the reference r(%d)"
         !unbounded reference)
  else Ok !arcs

let in_window inst = Result.is_ok (scan inst)

let solve ?deadline inst =
  let { m; u; v; bound; reference; _ } = inst in
  match scan inst with
  | Error _ as e -> e
  | Ok arcs ->
    let source = inst.n and sink = inst.n + 1 in
    let edges =
      Array.fold_left (fun k p -> if p <> 0. then k + 1 else k) 0 inst.profit
      + arcs + 1
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
      if bound.(i) = 0 && v.(i) <> u.(i) && v.(i) <> reference then
        Maxflow.add_edge mf ~src:v.(i) ~dst:u.(i) ~cap:inf_cap
    done;
    for i = m - 1 downto 0 do
      if bound.(i) = -1 then
        Maxflow.add_edge mf ~src:source ~dst:u.(i) ~cap:inf_cap
    done;
    for i = m - 1 downto 0 do
      if bound.(i) = -1 && v.(i) <> reference then
        Maxflow.add_edge mf ~src:v.(i) ~dst:sink ~cap:inf_cap
    done;
    Maxflow.add_edge mf ~src:reference ~dst:sink ~cap:inf_cap;
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
