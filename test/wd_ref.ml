(* Dense O(n^3) reference for the sparse W/D kernel of Leiserson–Saxe
   retiming (Eq. 1-2): a lexicographic Floyd–Warshall (min registers,
   then max delay). The classic tests cross-check [Rar_retime.Wd]
   against it. *)

module Netlist = Rar_netlist.Netlist
module Liberty = Rar_liberty.Liberty
module Classic = Rar_retime.Classic
module Wd = Rar_retime.Wd

let floyd_warshall ~n ~delays ~edges =
  let w = Array.make_matrix n n Wd.big in
  let d = Array.make_matrix n n neg_infinity in
  for v = 0 to n - 1 do
    w.(v).(v) <- 0;
    d.(v).(v) <- delays.(v)
  done;
  List.iter
    (fun (u, v, we) ->
      if u <> v then begin
        let cand_d = delays.(u) +. delays.(v) in
        if we < w.(u).(v) || (we = w.(u).(v) && cand_d > d.(u).(v)) then begin
          w.(u).(v) <- we;
          d.(u).(v) <- cand_d
        end
      end)
    edges;
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      if w.(i).(k) < Wd.big then
        for j = 0 to n - 1 do
          if w.(k).(j) < Wd.big then begin
            let nw = w.(i).(k) + w.(k).(j) in
            let nd = d.(i).(k) +. d.(k).(j) -. delays.(k) in
            if nw < w.(i).(j) || (nw = w.(i).(j) && nd > d.(i).(j)) then begin
              w.(i).(j) <- nw;
              d.(i).(j) <- nd
            end
          end
        done
    done
  done;
  (w, d)

(* The dense matrices of [Classic.of_netlist ~lib net]: vertex delays
   re-derived from the library (host = vertex 0, then the gates in
   [Netlist.gates] order), edges read back as the fan-out arcs of
   Eq. 3 — [constraint_arcs] at an infinite period has no period
   constraints. *)
let classic ~lib net g =
  let n = Classic.node_count g in
  let delays = Array.make n 0. in
  Array.iteri
    (fun i v ->
      match Netlist.kind net v with
      | Netlist.Gate { fn; drive } ->
        delays.(i + 1) <-
          Liberty.cell_delay_max
            (Liberty.comb_cell lib fn ~drive)
            ~n_pins:(Array.length (Netlist.fanins net v))
            ~load:(Liberty.gate_load lib net v)
      | Netlist.Input | Netlist.Output | Netlist.Seq _ -> ())
    (Netlist.gates net);
  let edges = Array.to_list (Classic.constraint_arcs g ~period:infinity) in
  floyd_warshall ~n ~delays ~edges
