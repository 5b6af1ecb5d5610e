module Cell_kind = Rar_netlist.Cell_kind
module Netlist = Rar_netlist.Netlist

type arc = { rise : float; fall : float }

let arc_max a = Float.max a.rise a.fall

type comb_cell = {
  fn : Cell_kind.t;
  drive : int;
  area : float;
  input_cap : float;
  intrinsic : arc;
  load_slope : arc;
  pin_derate : float;
}

type seq_cell = {
  seq_area : float;
  d_to_q : float;
  ck_to_q : float;
  setup : float;
  seq_input_cap : float;
}

type t = {
  lib_name : string;
  lib_drives : int list;
  cells : comb_cell array array;
    (* per kind, at its [slot]: that kind's cells, one per drive *)
  lib_latch : seq_cell;
  lib_flop : seq_cell;
  wire_cap_per_fanout : float;
}

let name t = t.lib_name
let drives t = t.lib_drives
let latch t = t.lib_latch
let flop t = t.lib_flop

(* A kind's row in [cells]: its position in [Cell_kind.all]. *)
let slot = function
  | Cell_kind.Buf -> 0
  | Cell_kind.Inv -> 1
  | Cell_kind.And -> 2
  | Cell_kind.Nand -> 3
  | Cell_kind.Or -> 4
  | Cell_kind.Nor -> 5
  | Cell_kind.Xor -> 6
  | Cell_kind.Xnor -> 7
  | Cell_kind.Aoi21 -> 8
  | Cell_kind.Oai21 -> 9
  | Cell_kind.Mux2 -> 10

(* The rows of a cell list; a later cell replaces an earlier one of the
   same kind and drive. *)
let table cells =
  let rows = Array.make (List.length Cell_kind.all) [] in
  List.iter
    (fun (c : comb_cell) ->
      let k = slot c.fn in
      rows.(k) <-
        c :: List.filter (fun (d : comb_cell) -> d.drive <> c.drive) rows.(k))
    cells;
  Array.map Array.of_list rows

(* The position of [drive] in a kind's row, or -1. *)
let rec drive_index (row : comb_cell array) drive i =
  if i = Array.length row then -1
  else if row.(i).drive = drive then i
  else drive_index row drive (i + 1)

(* A search of one short row, not a hash lookup: a hit allocates
   nothing, and STA looks a cell up per gate and per fanout. *)
let comb_cell t fn ~drive =
  let row = t.cells.(slot fn) in
  let i = drive_index row drive 0 in
  if i < 0 then
    invalid_arg
      (Printf.sprintf "Liberty.comb_cell: no %s with drive %d"
         (Cell_kind.name fn) drive)
  else row.(i)

let[@inline] wire_cap t ~fanouts =
  t.wire_cap_per_fanout *. float_of_int fanouts

(* ------------------------------------------------------------------ *)
(* Default library                                                     *)
(* ------------------------------------------------------------------ *)

(* Base parameters per kind at drive 1. Delays in ns, areas in
   normalised um^2-like units chosen so Table-I-scale circuits land in
   the same few-hundred-to-few-thousand range as the paper. Rise is
   made slower than fall (n/p asymmetry) so the gate-based max model is
   measurably pessimistic. *)
let base_params fn =
  (* area, input_cap, intrinsic_rise, intrinsic_fall, slope_rise, slope_fall.
     Areas are scaled so that a converted design's sequential area is
     ~60% of total, the ratio the paper's Tables IV/V exhibit. *)
  match fn with
  | Cell_kind.Buf -> (0.28, 0.9, 0.030, 0.026, 0.010, 0.008)
  | Cell_kind.Inv -> (0.18, 1.0, 0.014, 0.011, 0.011, 0.008)
  | Cell_kind.And -> (0.38, 1.0, 0.034, 0.029, 0.011, 0.009)
  | Cell_kind.Nand -> (0.30, 1.1, 0.020, 0.015, 0.012, 0.009)
  | Cell_kind.Or -> (0.38, 1.0, 0.037, 0.032, 0.012, 0.010)
  | Cell_kind.Nor -> (0.30, 1.2, 0.026, 0.017, 0.014, 0.009)
  | Cell_kind.Xor -> (0.58, 1.6, 0.044, 0.040, 0.015, 0.013)
  | Cell_kind.Xnor -> (0.58, 1.6, 0.045, 0.041, 0.015, 0.013)
  | Cell_kind.Aoi21 -> (0.42, 1.3, 0.031, 0.022, 0.015, 0.011)
  | Cell_kind.Oai21 -> (0.42, 1.3, 0.033, 0.024, 0.015, 0.011)
  | Cell_kind.Mux2 -> (0.54, 1.4, 0.041, 0.037, 0.014, 0.012)

(* Per-kind extra delay per input pin beyond the second: wide gates are
   slower. *)
let width_derate = 0.06

(* Drive scaling: a drive-k cell has ~linearly lower slope, slightly
   higher intrinsic cap and area sub-linear in k. *)
let scale_cell fn drive =
  let area, cap, ir, if_, sr, sf = base_params fn in
  let k = float_of_int drive in
  {
    fn;
    drive;
    area = area *. (0.55 +. (0.45 *. k));
    input_cap = cap *. (0.7 +. (0.3 *. k));
    intrinsic = { rise = ir *. (1. +. (0.05 *. (k -. 1.))); fall = if_ *. (1. +. (0.05 *. (k -. 1.))) };
    load_slope = { rise = sr /. k; fall = sf /. k };
    pin_derate = width_derate;
  }

let default () =
  let lib_drives = [ 1; 2; 4 ] in
  let cells =
    table
      (List.concat_map
         (fun fn -> List.map (scale_cell fn) lib_drives)
         Cell_kind.all)
  in
  (* Latch area = 43% of flop area (paper §VI-D); ck_to_q is 40% larger
     than d_to_q (§III). *)
  let lib_flop =
    { seq_area = 4.6; d_to_q = 0.0; ck_to_q = 0.062; setup = 0.035; seq_input_cap = 1.1 }
  in
  let lib_latch =
    { seq_area = 4.6 *. 0.43; d_to_q = 0.040; ck_to_q = 0.056; setup = 0.030;
      seq_input_cap = 1.0 }
  in
  { lib_name = "rar28"; lib_drives; cells; lib_latch; lib_flop;
    wire_cap_per_fanout = 0.15 }

let make ~name ~cells ~latch ~flop ~wire_cap_per_fanout =
  {
    lib_name = name;
    lib_drives =
      List.sort_uniq compare (List.map (fun (c : comb_cell) -> c.drive) cells);
    cells = table cells;
    lib_latch = latch;
    lib_flop = flop;
    wire_cap_per_fanout;
  }

let all_cells t =
  List.concat_map Array.to_list (Array.to_list t.cells)
  |> List.sort (fun a b -> compare (a.fn, a.drive) (b.fn, b.drive))

let wire_cap_per_fanout t = t.wire_cap_per_fanout

let synthetic ~name ~cells ~latch ~flop =
  let cells =
    List.map
      (fun ((fn, drive), area, delay) ->
        {
          fn;
          drive;
          area;
          input_cap = 0.;
          intrinsic = { rise = delay; fall = delay };
          load_slope = { rise = 0.; fall = 0. };
          pin_derate = 0.;
        })
      cells
  in
  make ~name ~cells ~latch ~flop ~wire_cap_per_fanout:0.

(* ------------------------------------------------------------------ *)
(* Delay queries                                                       *)
(* ------------------------------------------------------------------ *)

(* The delay from input [pin] of [cell] for one output transition,
   from that transition's intrinsic delay and load slope. *)
let[@inline] derated cell ~pin intrinsic slope load =
  (1. +. (float_of_int pin *. cell.pin_derate))
  *. (intrinsic +. (slope *. load))

let pin_arc cell ~pin ~load =
  {
    rise = derated cell ~pin cell.intrinsic.rise cell.load_slope.rise load;
    fall = derated cell ~pin cell.intrinsic.fall cell.load_slope.fall load;
  }

let[@inline] node_input_cap t net v =
  match Netlist.kind net v with
  | Netlist.Gate { fn; drive } -> (comb_cell t fn ~drive).input_cap
  | Netlist.Seq _ -> t.lib_latch.seq_input_cap
  | Netlist.Output -> 1.0 (* nominal external load *)
  | Netlist.Input -> 0.

(* Inlined into [pin_arcs], so the load is never a boxed float. *)
let[@inline] gate_load t net v =
  let c = Netlist.compact net in
  let head = c.Netlist.Compact.fanout_head
  and fanout = c.Netlist.Compact.fanout in
  let total = ref (wire_cap t ~fanouts:(head.(v + 1) - head.(v))) in
  for p = head.(v) to head.(v + 1) - 1 do
    total := !total +. node_input_cap t net fanout.(p)
  done;
  !total

let pin_arcs t net v ~rise ~fall ~at =
  match Netlist.kind net v with
  | Netlist.Gate { fn; drive } ->
    let cell = comb_cell t fn ~drive in
    let load = gate_load t net v in
    let head = (Netlist.compact net).Netlist.Compact.fanin_head in
    for pin = 0 to head.(v + 1) - head.(v) - 1 do
      rise.(at + pin) <-
        derated cell ~pin cell.intrinsic.rise cell.load_slope.rise load;
      fall.(at + pin) <-
        derated cell ~pin cell.intrinsic.fall cell.load_slope.fall load
    done
  | Netlist.Input | Netlist.Output | Netlist.Seq _ ->
    invalid_arg "Liberty.pin_arcs: not a gate"

let gate_area t net v =
  match Netlist.kind net v with
  | Netlist.Gate { fn; drive } -> (comb_cell t fn ~drive).area
  | Netlist.Seq Netlist.Flop -> t.lib_flop.seq_area
  | Netlist.Seq (Netlist.Master | Netlist.Slave) -> t.lib_latch.seq_area
  | Netlist.Input | Netlist.Output -> 0.

let comb_area t net =
  Array.fold_left
    (fun acc v -> acc +. gate_area t net v)
    0. (Netlist.gates net)
