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
  cells : (Cell_kind.t * int, comb_cell) Hashtbl.t;
  lib_latch : seq_cell;
  lib_flop : seq_cell;
  wire_cap_per_fanout : float;
}

let name t = t.lib_name
let drives t = t.lib_drives
let latch t = t.lib_latch
let flop t = t.lib_flop

let comb_cell t fn ~drive =
  match Hashtbl.find_opt t.cells (fn, drive) with
  | Some c -> c
  | None ->
    invalid_arg
      (Printf.sprintf "Liberty.comb_cell: no %s with drive %d"
         (Cell_kind.name fn) drive)

let wire_cap t ~fanouts = t.wire_cap_per_fanout *. float_of_int fanouts

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
  let cells = Hashtbl.create 64 in
  List.iter
    (fun fn ->
      List.iter
        (fun d -> Hashtbl.replace cells (fn, d) (scale_cell fn d))
        lib_drives)
    Cell_kind.all;
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
  let tbl = Hashtbl.create 32 in
  let drives = Hashtbl.create 8 in
  List.iter
    (fun (c : comb_cell) ->
      Hashtbl.replace drives c.drive ();
      Hashtbl.replace tbl (c.fn, c.drive) c)
    cells;
  {
    lib_name = name;
    lib_drives = List.sort compare (Hashtbl.fold (fun d () l -> d :: l) drives []);
    cells = tbl;
    lib_latch = latch;
    lib_flop = flop;
    wire_cap_per_fanout;
  }

let all_cells t =
  Hashtbl.fold (fun _ c acc -> c :: acc) t.cells []
  |> List.sort (fun a b -> compare (a.fn, a.drive) (b.fn, b.drive))

let wire_cap_per_fanout t = t.wire_cap_per_fanout

let synthetic ~name ~cells ~latch ~flop =
  let tbl = Hashtbl.create 16 in
  let drives = Hashtbl.create 8 in
  List.iter
    (fun ((fn, drive), area, delay) ->
      Hashtbl.replace drives drive ();
      Hashtbl.replace tbl (fn, drive)
        {
          fn;
          drive;
          area;
          input_cap = 0.;
          intrinsic = { rise = delay; fall = delay };
          load_slope = { rise = 0.; fall = 0. };
          pin_derate = 0.;
        })
    cells;
  {
    lib_name = name;
    lib_drives = List.sort compare (Hashtbl.fold (fun d () l -> d :: l) drives []);
    cells = tbl;
    lib_latch = latch;
    lib_flop = flop;
    wire_cap_per_fanout = 0.;
  }

(* ------------------------------------------------------------------ *)
(* Delay queries                                                       *)
(* ------------------------------------------------------------------ *)

let pin_arc cell ~pin ~load =
  let derate = 1. +. (float_of_int pin *. cell.pin_derate) in
  {
    rise = derate *. (cell.intrinsic.rise +. (cell.load_slope.rise *. load));
    fall = derate *. (cell.intrinsic.fall +. (cell.load_slope.fall *. load));
  }

let node_input_cap t net v ~pin =
  match Netlist.kind net v with
  | Netlist.Gate { fn; drive } -> (comb_cell t fn ~drive).input_cap
  | Netlist.Seq _ -> t.lib_latch.seq_input_cap
  | Netlist.Output -> 1.0 (* nominal external load *)
  | Netlist.Input -> ignore pin; 0.

let gate_load t net v =
  let total = ref (wire_cap t ~fanouts:(Netlist.fanout_count net v)) in
  Array.iter
    (fun w -> total := !total +. node_input_cap t net w ~pin:0)
    (Netlist.fanouts net v);
  !total

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
