module Vec = Rar_util.Vec

type arc = { src : int; dst : int; cost : int }

type t = {
  n : int;
  arcs : arc Vec.t;
  demands : float array;
}

let create ~n =
  if n <= 0 then invalid_arg "Problem.create: n <= 0";
  { n; arcs = Vec.create (); demands = Array.make n 0. }

let node_count t = t.n
let arc_count t = Vec.length t.arcs

let check_node t v name =
  if v < 0 || v >= t.n then
    invalid_arg (Printf.sprintf "Problem.%s: node %d out of range" name v)

let add_arc t ~src ~dst ~cost =
  check_node t src "add_arc";
  check_node t dst "add_arc";
  if src = dst then invalid_arg "Problem.add_arc: self-loop";
  let id = Vec.length t.arcs in
  Vec.add_last t.arcs { src; dst; cost };
  id

let iter_arcs t f = Vec.iteri f t.arcs

let add_demand t v d =
  check_node t v "add_demand";
  t.demands.(v) <- t.demands.(v) +. d

let demand t v =
  check_node t v "demand";
  t.demands.(v)

let total_demand t = Array.fold_left ( +. ) 0. t.demands
