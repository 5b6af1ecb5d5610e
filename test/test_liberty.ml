(* Cell-library model tests: the properties the paper's text pins down
   (latch/flop area ratio, D-to-Q vs clock-to-Q spread, EDL overhead
   scaling) plus basic delay-model sanity. *)

module Liberty = Rar_liberty.Liberty
module Cell_kind = Rar_netlist.Cell_kind

let lib = Liberty.default ()

let test_all_cells_present () =
  List.iter
    (fun fn ->
      List.iter
        (fun d -> ignore (Liberty.comb_cell lib fn ~drive:d))
        (Liberty.drives lib))
    Cell_kind.all

let test_latch_flop_ratio () =
  (* §VI-D: "the average area of our latch is 43% of the area of a
     flip-flop". *)
  let latch = (Liberty.latch lib).Liberty.seq_area in
  let flop = (Liberty.flop lib).Liberty.seq_area in
  Alcotest.(check (float 1e-6)) "43%" 0.43 (latch /. flop)

let test_ckq_dq_spread () =
  (* §III: clock-to-Q and D-to-Q "may vary by up to 40%". *)
  let l = Liberty.latch lib in
  Alcotest.(check (float 1e-6)) "40% spread" 1.4
    (l.Liberty.ck_to_q /. l.Liberty.d_to_q)

let test_ed_latch_scaling () =
  let latch = Liberty.latch lib in
  List.iter
    (fun c ->
      let ed = Liberty.ed_latch lib ~c in
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "area at c=%.1f" c)
        ((1. +. c) *. latch.Liberty.seq_area)
        ed.Liberty.seq_area)
    [ 0.5; 1.0; 2.0 ];
  Alcotest.check_raises "negative overhead"
    (Invalid_argument "Liberty.ed_latch: negative overhead") (fun () ->
      ignore (Liberty.ed_latch lib ~c:(-0.1)))

let test_delay_monotone_in_load () =
  List.iter
    (fun fn ->
      let cell = Liberty.comb_cell lib fn ~drive:1 in
      let a1 = Liberty.pin_arc cell ~pin:0 ~load:1.0 in
      let a2 = Liberty.pin_arc cell ~pin:0 ~load:5.0 in
      Alcotest.(check bool)
        (Cell_kind.name fn ^ " rise monotone")
        true
        (a2.Liberty.rise >= a1.Liberty.rise);
      Alcotest.(check bool)
        (Cell_kind.name fn ^ " fall monotone")
        true (a2.Liberty.fall >= a1.Liberty.fall))
    Cell_kind.all

let test_higher_drive_faster_under_load () =
  let d1 = Liberty.comb_cell lib Cell_kind.Nand ~drive:1 in
  let d4 = Liberty.comb_cell lib Cell_kind.Nand ~drive:4 in
  let load = 8.0 in
  Alcotest.(check bool) "drive 4 faster at high load" true
    (Liberty.arc_max (Liberty.pin_arc d4 ~pin:0 ~load)
    < Liberty.arc_max (Liberty.pin_arc d1 ~pin:0 ~load));
  Alcotest.(check bool) "drive 4 larger" true (d4.Liberty.area > d1.Liberty.area)

let test_cell_delay_max_dominates () =
  let cell = Liberty.comb_cell lib Cell_kind.Aoi21 ~drive:2 in
  let worst = Liberty.cell_delay_max cell ~n_pins:3 ~load:3.0 in
  for pin = 0 to 2 do
    let a = Liberty.pin_arc cell ~pin ~load:3.0 in
    Alcotest.(check bool) "dominates" true (worst >= Liberty.arc_max a)
  done

let test_virtual_groups () =
  let g = Liberty.virtual_groups lib ~c:2.0 ~resiliency_window:0.3 in
  let latch = Liberty.latch lib in
  Alcotest.(check (float 1e-9)) "normal unchanged" latch.Liberty.setup
    g.Liberty.vl_normal.Liberty.setup;
  Alcotest.(check (float 1e-9)) "non-ed setup extended"
    (latch.Liberty.setup +. 0.3)
    g.Liberty.vl_non_ed.Liberty.setup;
  Alcotest.(check (float 1e-9)) "ed area" (3. *. latch.Liberty.seq_area)
    g.Liberty.vl_ed.Liberty.seq_area

let test_synthetic_constant_delay () =
  let latch =
    { Liberty.seq_area = 1.; d_to_q = 0.; ck_to_q = 0.; setup = 0.;
      seq_input_cap = 0. }
  in
  let lib =
    Liberty.synthetic ~name:"t" ~latch ~flop:latch
      ~cells:[ ((Cell_kind.Nand, 1), 2.0, 0.7) ]
  in
  let cell = Liberty.comb_cell lib Cell_kind.Nand ~drive:1 in
  let a0 = Liberty.pin_arc cell ~pin:0 ~load:0. in
  let a9 = Liberty.pin_arc cell ~pin:1 ~load:9. in
  Alcotest.(check (float 1e-9)) "load free" 0.7 (Liberty.arc_max a0);
  Alcotest.(check (float 1e-9)) "pin free" 0.7 (Liberty.arc_max a9)

(* --- .lib reader / writer ------------------------------------------ *)

module Liberty_io = Rar_liberty.Liberty_io

let parse_lib text =
  Result.map_error Rar_util.Diag.to_string (Liberty_io.parse_diag text)

let test_lib_roundtrip () =
  let text = Liberty_io.print lib in
  match parse_lib text with
  | Error e -> Alcotest.fail e
  | Ok lib2 ->
    Alcotest.(check string) "name" (Liberty.name lib) (Liberty.name lib2);
    Alcotest.(check (list int)) "drives" (Liberty.drives lib)
      (Liberty.drives lib2);
    (* every cell's parameters survive *)
    List.iter
      (fun (c : Liberty.comb_cell) ->
        let c' = Liberty.comb_cell lib2 c.Liberty.fn ~drive:c.Liberty.drive in
        Alcotest.(check (float 1e-9)) "area" c.Liberty.area c'.Liberty.area;
        Alcotest.(check (float 1e-9)) "cap" c.Liberty.input_cap
          c'.Liberty.input_cap;
        Alcotest.(check (float 1e-9)) "intrinsic rise"
          c.Liberty.intrinsic.Liberty.rise c'.Liberty.intrinsic.Liberty.rise;
        Alcotest.(check (float 1e-9)) "slope fall"
          c.Liberty.load_slope.Liberty.fall c'.Liberty.load_slope.Liberty.fall;
        Alcotest.(check (float 1e-9)) "derate" c.Liberty.pin_derate
          c'.Liberty.pin_derate)
      (Liberty.all_cells lib);
    let l = Liberty.latch lib and l' = Liberty.latch lib2 in
    Alcotest.(check (float 1e-9)) "latch area" l.Liberty.seq_area
      l'.Liberty.seq_area;
    Alcotest.(check (float 1e-9)) "latch ckq" l.Liberty.ck_to_q
      l'.Liberty.ck_to_q;
    Alcotest.(check (float 1e-9)) "wire cap"
      (Liberty.wire_cap_per_fanout lib)
      (Liberty.wire_cap_per_fanout lib2)

let test_lib_parse_vendor_style () =
  (* A hand-written vendor-flavoured snippet with comments, strings,
     an unsupported cell (skipped) and apostrophe negation. *)
  let text =
    {x|/* tiny lib */
library (tiny) {
  time_unit : "1ns";
  cell (NAND2_X2) {
    area : 0.4;
    pin (A) { direction : input; capacitance : 1.0; }
    pin (B) { direction : input; capacitance : 1.2; }
    pin (ZN) {
      direction : output;
      function : "(A * B)'";
      timing () { related_pin : "A"; intrinsic_rise : 0.02;
                  intrinsic_fall : 0.015; rise_resistance : 0.01;
                  fall_resistance : 0.008; }
    }
  }
  cell (WEIRD) {
    area : 9;
    pin (A) { direction : input; capacitance : 1.0; }
    pin (Z) { direction : output; }
  }
  cell (LATCH_LP) {
    area : 2.0;
    latch (IQ, IQN) { }
    pin (D) { direction : input; capacitance : 0.9; }
  }
}|x}
  in
  match parse_lib text with
  | Error e -> Alcotest.fail e
  | Ok lib2 ->
    let c = Liberty.comb_cell lib2 Rar_netlist.Cell_kind.Nand ~drive:2 in
    Alcotest.(check (float 1e-9)) "area" 0.4 c.Liberty.area;
    Alcotest.(check (float 1e-9)) "cap is worst pin" 1.2 c.Liberty.input_cap;
    Alcotest.(check (float 1e-9)) "latch area" 2.0
      (Liberty.latch lib2).Liberty.seq_area

let test_lib_parse_errors () =
  (match parse_lib "nonsense" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected parse error");
  match parse_lib "library (x) { }" with
  | Error _ -> () (* no latch / no cells *)
  | Ok _ -> Alcotest.fail "expected missing-cell error"

let test_lib_drives_sta () =
  (* a parsed library drives the full flow *)
  let text = Liberty_io.print lib in
  match parse_lib text with
  | Error e -> Alcotest.fail e
  | Ok lib2 -> (
    match Rar_circuits.Suite.load ~lib:lib2 "s1196" with
    | Error e -> Alcotest.fail e
    | Ok p ->
      Alcotest.(check bool) "prepared" true (p.Rar_circuits.Suite.p > 0.))

let suite =
  [
    Alcotest.test_case "all cells present" `Quick test_all_cells_present;
    Alcotest.test_case "latch = 43% of flop" `Quick test_latch_flop_ratio;
    Alcotest.test_case "ck_to_q/d_to_q = 1.4" `Quick test_ckq_dq_spread;
    Alcotest.test_case "ED latch area scaling" `Quick test_ed_latch_scaling;
    Alcotest.test_case "delay monotone in load" `Quick test_delay_monotone_in_load;
    Alcotest.test_case "drive strength trade-off" `Quick
      test_higher_drive_faster_under_load;
    Alcotest.test_case "cell_delay_max dominates" `Quick
      test_cell_delay_max_dominates;
    Alcotest.test_case "virtual library groups" `Quick test_virtual_groups;
    Alcotest.test_case "synthetic library" `Quick test_synthetic_constant_delay;
    Alcotest.test_case ".lib roundtrip" `Quick test_lib_roundtrip;
    Alcotest.test_case ".lib vendor style" `Quick test_lib_parse_vendor_style;
    Alcotest.test_case ".lib errors" `Quick test_lib_parse_errors;
    Alcotest.test_case ".lib drives the flow" `Quick test_lib_drives_sta;
  ]
