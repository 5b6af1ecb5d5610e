(* Dense reference for per-sink stage classification (paper §IV-A,
   Eq. 5 and 8-9): the classifier as first written — one O(n)
   [Sta.backward_packed] pass per sink, an ascending scan of every node
   filtered to the cone, a [Hashtbl] of good edges, and fanout scans
   that re-evaluate [A] for the cut set. It classifies every sink by
   its cone (no pruning); the longest path is the sink's forward
   arrival. The retime tests check [Rar_retime.Stage] against it
   bitwise. *)

module Netlist = Rar_netlist.Netlist
module Liberty = Rar_liberty.Liberty
module Sta = Rar_sta.Sta
module Clocking = Rar_sta.Clocking
module Stage = Rar_retime.Stage

let eps = 1e-9

type sink_result = {
  cls : Stage.sink_class;
  mp : float;
  ill : (int * int) list;
  win : (int * int) list;  (* [] unless [cls] is [Target] *)
}

let classify_sink ~sta ~clocking ~latch s =
  let net = Sta.netlist sta in
  let n = Netlist.node_count net in
  let period = Clocking.period clocking in
  let limit = Clocking.max_delay clocking in
  let db = Sta.backward_packed sta ~sink:s in
  let in_cone v =
    db.Sta.rise.(v) > neg_infinity || db.Sta.fall.(v) > neg_infinity
  in
  let cone_asc = List.filter in_cone (List.init n Fun.id) in
  let max_path = Sta.arrival_at_sink sta s in
  let a_of ~u ~v =
    Sta.arrival_with_slave_after sta ~clocking ~latch ~u ~v ~db
  in
  let close_limit = Clocking.slave_close clocking -. latch.Liberty.setup in
  let can_launch u = Sta.df sta u <= close_limit +. eps in
  let is_input v = Netlist.kind net v = Netlist.Input in
  let a_max_legal = ref neg_infinity in
  let good = Hashtbl.create 64 in
  let illegal = ref [] and window = ref [] in
  List.iter
    (fun v ->
      if not (is_input v) then
        Array.iter
          (fun u ->
            let a = a_of ~u ~v in
            if a > limit +. eps then illegal := (u, v) :: !illegal
            else if a > period +. eps then window := (u, v) :: !window;
            if can_launch u && a <= limit +. eps then begin
              if a > !a_max_legal then a_max_legal := a;
              if a <= period +. eps then Hashtbl.replace good (u, v) ()
            end)
          (Netlist.fanins net v))
    cone_asc;
  let ill = List.rev !illegal in
  let bad = Array.make n false in
  Array.iter
    (fun v ->
      if in_cone v then
        bad.(v) <-
          is_input v
          || Array.exists
               (fun u -> bad.(u) && not (Hashtbl.mem good (u, v)))
               (Netlist.fanins net v))
    (Netlist.topo_comb net);
  if bad.(s) then { cls = Stage.Always_ed; mp = max_path; ill; win = [] }
  else if !a_max_legal <= period +. eps then
    { cls = Stage.Never_ed; mp = max_path; ill; win = [] }
  else begin
    let cut =
      List.filter
        (fun v ->
          let cone_fanouts =
            List.filter in_cone (Array.to_list (Netlist.fanouts net v))
          in
          (match Netlist.kind net v with
          | Netlist.Input | Netlist.Gate _ -> true
          | Netlist.Output | Netlist.Seq _ -> false)
          && List.exists (fun w -> Hashtbl.mem good (v, w)) cone_fanouts
          &&
          if is_input v then
            List.exists (fun w -> a_of ~u:v ~v:w > period +. eps) cone_fanouts
          else
            Array.exists
              (fun k -> a_of ~u:k ~v > period +. eps)
              (Netlist.fanins net v))
        cone_asc
    in
    if cut = [] then { cls = Stage.Always_ed; mp = max_path; ill; win = [] }
    else { cls = Stage.Target { cut }; mp = max_path; ill; win = !window }
  end

(* Per sink, in [Netlist.outputs] order, plus the stage-wide illegal
   edge list merged the way [Stage.make] merges it. *)
let classify ~sta ~clocking ~latch =
  let net = Sta.netlist sta in
  let per_sink =
    Array.map
      (fun s -> (s, classify_sink ~sta ~clocking ~latch s))
      (Netlist.outputs net)
  in
  let illegal_tbl = Hashtbl.create 64 in
  Array.iter
    (fun (_, r) -> List.iter (fun e -> Hashtbl.replace illegal_tbl e ()) r.ill)
    per_sink;
  (per_sink, Hashtbl.fold (fun e () acc -> e :: acc) illegal_tbl [])
