(* Static-timing tests: hand-computed chains, model-comparison
   properties on generated circuits, forward/backward consistency. *)

module Netlist = Rar_netlist.Netlist
module Cell_kind = Rar_netlist.Cell_kind
module Transform = Rar_netlist.Transform
module Convert = Rar_netlist.Convert
module Liberty = Rar_liberty.Liberty
module Sta = Rar_sta.Sta
module Clocking = Rar_sta.Clocking
module Spec = Rar_circuits.Spec
module Generator = Rar_circuits.Generator
module B = Netlist.Builder

let feq = Alcotest.(check (float 1e-9))

(* A 3-inverter chain through the synthetic constant-delay library. *)
let chain_lib =
  let latch =
    { Liberty.seq_area = 1.; d_to_q = 0.1; ck_to_q = 0.2; setup = 0.05;
      seq_input_cap = 0. }
  in
  Rar_liberty.Liberty.synthetic ~name:"chain" ~latch ~flop:latch
    ~cells:[ ((Cell_kind.Inv, 1), 1.0, 0.5); ((Cell_kind.Nand, 1), 1.0, 1.0) ]

let chain () =
  let b = B.create ~name:"chain" () in
  let pi = B.add_input b "pi" in
  let g1 = B.add_gate b "g1" ~fn:Cell_kind.Inv ~fanins:[ pi ] () in
  let g2 = B.add_gate b "g2" ~fn:Cell_kind.Inv ~fanins:[ g1 ] () in
  let g3 = B.add_gate b "g3" ~fn:Cell_kind.Inv ~fanins:[ g2 ] () in
  let _ = B.add_output b "po" ~fanin:g3 in
  B.freeze b

let test_chain_arrivals () =
  let net = chain () in
  let sta = Sta.analyse ~launch:0.2 chain_lib Sta.Path_based net in
  let g3 = Option.get (Netlist.find net "g3") in
  let po = Option.get (Netlist.find net "po") in
  feq "df g3" (0.2 +. (3. *. 0.5)) (Sta.df sta g3);
  feq "sink arrival" 1.7 (Sta.arrival_at_sink sta po)

let test_chain_backward () =
  let net = chain () in
  let sta = Sta.analyse ~launch:0. chain_lib Sta.Path_based net in
  let po = Option.get (Netlist.find net "po") in
  let db = Sta.backward_scalar sta ~sink:po in
  let g1 = Option.get (Netlist.find net "g1") in
  let pi = Option.get (Netlist.find net "pi") in
  feq "db g1" 1.0 db.(g1);
  feq "db pi" 1.5 db.(pi);
  feq "db po" 0.0 db.(po)

let test_latch_floor () =
  (* A slave right after the source: output is pinned to the opening
     edge when data arrives early. *)
  let net = chain () in
  let sta = Sta.analyse ~launch:0. chain_lib Sta.Path_based net in
  let clocking = Clocking.v ~phi1:3. ~gamma1:0. ~phi2:3. ~gamma2:1. in
  let latch = Liberty.latch chain_lib in
  let pi = Option.get (Netlist.find net "pi") in
  let lo = Sta.latch_out sta ~clocking ~latch pi in
  (* open = 3.0, ck_to_q = 0.2 -> 3.2 (arrival 0 + d_to_q = 0.1 is earlier) *)
  feq "floor" 3.2 (Liberty.arc_max lo)

let test_forward_with_latches_matches_plain () =
  let net = chain () in
  let sta = Sta.analyse chain_lib Sta.Path_based net in
  let clocking = Clocking.v ~phi1:1. ~gamma1:0. ~phi2:1. ~gamma2:0.5 in
  let arr =
    Sta.forward_with_latches sta ~clocking ~latch:(Liberty.latch chain_lib)
      ~latched:(fun ~v:_ ~pin:_ -> false)
  in
  for v = 0 to Netlist.node_count net - 1 do
    feq "no latches = plain" (Sta.df sta v) (Liberty.arc_max arr.(v))
  done

let gen_stage name =
  let spec = Option.get (Spec.find name) in
  let net = Generator.generate { spec with Spec.n_gates = 300; depth = 10 } in
  let cc = Transform.extract_comb (Convert.split Convert.Two net) in
  cc.Transform.comb

let test_gate_model_pessimistic () =
  (* The gate-based model must never report an earlier arrival than the
     path-based model (it takes worst pin x worst transition at every
     stage). *)
  let lib = Liberty.default () in
  let comb = gen_stage "s1196" in
  let sp = Sta.analyse lib Sta.Path_based comb in
  let sg = Sta.analyse lib Sta.Gate_based comb in
  Array.iter
    (fun s ->
      Alcotest.(check bool) "gate >= path" true
        (Sta.arrival_at_sink sg s >= Sta.arrival_at_sink sp s -. 1e-9))
    (Netlist.outputs comb)

let test_backward_all_is_max () =
  let lib = Liberty.default () in
  let comb = gen_stage "s1238" in
  let sta = Sta.analyse lib Sta.Path_based comb in
  let all = Sta.backward_all sta in
  let per_sink =
    Array.map (fun s -> Sta.backward_scalar sta ~sink:s) (Netlist.outputs comb)
  in
  for v = 0 to Netlist.node_count comb - 1 do
    let m =
      Array.fold_left (fun acc db -> Float.max acc db.(v)) neg_infinity
        per_sink
    in
    if m > neg_infinity || all.(v) > neg_infinity then
      feq "max over sinks" m all.(v)
  done

let test_path_consistency () =
  (* df(v) + db(v, s) <= worst path into s, with equality somewhere. *)
  let lib = Liberty.default () in
  let comb = gen_stage "s1196" in
  let sta = Sta.analyse lib Sta.Path_based comb in
  Array.iter
    (fun s ->
      let db = Sta.backward sta ~sink:s in
      let arr_s = Sta.arrival_at_sink sta s in
      let best = ref neg_infinity in
      for v = 0 to Netlist.node_count comb - 1 do
        let a = Sta.arrival_arc sta v in
        let thru =
          Float.max
            (a.Liberty.rise +. db.(v).Liberty.rise)
            (a.Liberty.fall +. db.(v).Liberty.fall)
        in
        if thru > !best then best := thru;
        Alcotest.(check bool) "path <= arrival at sink" true
          (thru <= arr_s +. 1e-9)
      done;
      feq "critical path tight" arr_s !best)
    (Netlist.outputs comb)

let test_through_matches_arrival () =
  let lib = Liberty.default () in
  let comb = gen_stage "s1238" in
  let sta = Sta.analyse lib Sta.Path_based comb in
  Array.iter
    (fun v ->
      match Netlist.kind comb v with
      | Netlist.Gate _ ->
        let best = ref Liberty.{ rise = neg_infinity; fall = neg_infinity } in
        Array.iter
          (fun u ->
            let out = Sta.through sta ~driver:u ~via:v (Sta.arrival_arc sta u) in
            best :=
              Liberty.arc_map2 Float.max !best out)
          (Netlist.fanins comb v);
        feq "through = arrival (rise)" (Sta.arrival_arc sta v).Liberty.rise
          !best.Liberty.rise;
        feq "through = arrival (fall)" (Sta.arrival_arc sta v).Liberty.fall
          !best.Liberty.fall
      | Netlist.Input | Netlist.Output | Netlist.Seq _ -> ())
    (Netlist.gates comb)

(* Equivalence pin for the compact-core forward sweep: the levelized
   arena arrivals must satisfy the per-edge [through] recurrence at
   every gate, under both delay models, on randomly generated
   circuits — i.e. the CSR sweep computes exactly what per-pin
   propagation would. *)
let prop_arrival_recurrence =
  QCheck.Test.make
    ~name:"levelized arrivals = per-edge recurrence (both models)" ~count:10
    QCheck.(int_bound 20)
    (fun seed ->
      let lib = Liberty.default () in
      let spec =
        { (Option.get (Spec.find "s1196")) with
          Spec.n_gates = 200; depth = 8;
          seed = Printf.sprintf "arr%d" seed }
      in
      let net = Generator.generate spec in
      let comb =
        (Transform.extract_comb (Convert.split Convert.Two net)).Transform.comb
      in
      List.for_all
        (fun model ->
          let sta = Sta.analyse lib model comb in
          Array.for_all
            (fun v ->
              match Netlist.kind comb v with
              | Netlist.Gate _ ->
                let best =
                  ref Liberty.{ rise = neg_infinity; fall = neg_infinity }
                in
                Array.iter
                  (fun u ->
                    best :=
                      Liberty.arc_map2 Float.max !best
                        (Sta.through sta ~driver:u ~via:v
                           (Sta.arrival_arc sta u)))
                  (Netlist.fanins comb v);
                let a = Sta.arrival_arc sta v in
                Float.abs (a.Liberty.rise -. !best.Liberty.rise) < 1e-9
                && Float.abs (a.Liberty.fall -. !best.Liberty.fall) < 1e-9
              | Netlist.Input | Netlist.Output | Netlist.Seq _ -> true)
            (Netlist.gates comb))
        [ Sta.Gate_based; Sta.Path_based ])

let cone_comb seed =
  let spec =
    { (Option.get (Spec.find "s1238")) with
      Spec.n_gates = 200; depth = 8;
      seed = Printf.sprintf "cone%d" seed }
  in
  (Transform.extract_comb (Convert.split Convert.Two (Generator.generate spec)))
    .Transform.comb

let bits = Int64.bits_of_float

(* The scratch loaded with [s] against a fresh dense [backward_packed]:
   the cone is exactly the dense support, listed once, sink first and
   every node before its fanins, with bitwise-equal delays on it. *)
let cone_matches_dense sta comb c s =
  let n = Netlist.node_count comb in
  Sta.load_cone sta c ~sink:s;
  let size = Sta.cone_size c and cone = Sta.cone_nodes c in
  let db = Sta.cone_db c in
  let dense = Sta.backward_packed sta ~sink:s in
  let pos = Array.make n (-1) in
  for i = 0 to size - 1 do
    pos.(cone.(i)) <- i
  done;
  let in_dense v =
    dense.Sta.rise.(v) > neg_infinity || dense.Sta.fall.(v) > neg_infinity
  in
  let support = List.filter in_dense (List.init n Fun.id) in
  List.length support = size
  && List.for_all
       (fun v ->
         pos.(v) >= 0
         && bits db.Sta.rise.(v) = bits dense.Sta.rise.(v)
         && bits db.Sta.fall.(v) = bits dense.Sta.fall.(v)
         && Array.for_all (fun u -> pos.(u) > pos.(v)) (Netlist.fanins comb v))
       support
  && cone.(0) = s

let prop_cone_matches_backward =
  QCheck.Test.make ~name:"cone scratch = backward on every node" ~count:10
    QCheck.(int_bound 20)
    (fun seed ->
      let comb = cone_comb seed in
      let sta = Sta.analyse (Liberty.default ()) Sta.Path_based comb in
      Array.for_all
        (fun s -> cone_matches_dense sta comb (Sta.cone_scratch sta) s)
        (Netlist.outputs comb))

(* One scratch serving many sinks back to back — both delay models of
   the same netlist, every sink in reverse, then forward order — must
   keep matching fresh dense results: no state leaks between sinks. *)
let prop_cone_scratch_reused =
  QCheck.Test.make ~name:"one cone scratch serves many sinks" ~count:5
    QCheck.(int_bound 20)
    (fun seed ->
      let comb = cone_comb seed in
      let lib = Liberty.default () in
      let sinks = Netlist.outputs comb in
      let c = Sta.cone_scratch (Sta.analyse lib Sta.Path_based comb) in
      List.for_all
        (fun model ->
          let sta = Sta.analyse lib model comb in
          let order =
            Array.append (Array.of_list (List.rev (Array.to_list sinks))) sinks
          in
          Array.for_all (cone_matches_dense sta comb c) order)
        [ Sta.Path_based; Sta.Gate_based ])

(* The per-pin A kernel over the hoisted slave arcs equals
   [arrival_with_slave_after] bitwise. *)
let prop_cone_slave_arrivals =
  QCheck.Test.make ~name:"cone A kernel = arrival_with_slave_after" ~count:5
    QCheck.(int_bound 20)
    (fun seed ->
      let comb = cone_comb seed in
      let lib = Liberty.default () in
      let latch = Liberty.latch lib in
      let cv = Netlist.compact comb in
      List.for_all
        (fun (model, clocking) ->
          let sta = Sta.analyse lib model comb in
          let c = Sta.cone_scratch sta in
          let arcs = Sta.slave_arcs sta ~clocking ~latch in
          Array.for_all
            (fun s ->
              Sta.load_cone sta c ~sink:s;
              let a = Sta.cone_slave_arrivals sta c arcs in
              let db = Sta.backward_packed sta ~sink:s in
              let cone = Sta.cone_nodes c in
              let ok = ref true in
              for i = 0 to Sta.cone_size c - 1 do
                let v = cone.(i) in
                if Netlist.kind comb v <> Netlist.Input then
                  for p = Netlist.Compact.fanin_lo cv v
                          to Netlist.Compact.fanin_hi cv v - 1 do
                    let u = Netlist.Compact.fanin cv p in
                    let want =
                      Sta.arrival_with_slave_after sta ~clocking ~latch ~u ~v
                        ~db
                    in
                    if bits a.(p) <> bits want then ok := false
                  done
              done;
              !ok)
            (Netlist.outputs comb))
        [ (Sta.Path_based, Clocking.of_p 2.0);
          (Sta.Gate_based, Clocking.of_p3 2.0) ])

(* The bound stage classification prunes by: a slave on any cone edge
   delays the sink by at most [slave_delay_bound] past its arrival (up
   to float rounding, far inside the classifier's 1e-9 tolerance). *)
let prop_slave_delay_bound =
  QCheck.Test.make ~name:"a slave adds at most the delay bound" ~count:5
    QCheck.(int_bound 20)
    (fun seed ->
      let comb = cone_comb seed in
      let lib = Liberty.default () in
      let latch = Liberty.latch lib in
      let cv = Netlist.compact comb in
      List.for_all
        (fun (model, clocking) ->
          let sta = Sta.analyse lib model comb in
          match Sta.slave_delay_bound sta ~clocking ~latch with
          | None -> false
          | Some d ->
            let c = Sta.cone_scratch sta in
            let arcs = Sta.slave_arcs sta ~clocking ~latch in
            Array.for_all
              (fun s ->
                Sta.load_cone sta c ~sink:s;
                let a = Sta.cone_slave_arrivals sta c arcs in
                let bound = Sta.arrival_at_sink sta s +. d +. 1e-12 in
                let cone = Sta.cone_nodes c and ok = ref true in
                for i = 0 to Sta.cone_size c - 1 do
                  let v = cone.(i) in
                  if Netlist.kind comb v <> Netlist.Input then
                    for p = Netlist.Compact.fanin_lo cv v
                            to Netlist.Compact.fanin_hi cv v - 1 do
                      if a.(p) > bound then ok := false
                    done
                done;
                !ok)
              (Netlist.outputs comb))
        [ (Sta.Path_based, Clocking.of_p 2.0);
          (Sta.Gate_based, Clocking.of_p3 2.0);
          (Sta.Path_based, Clocking.of_p 0.5) ])

(* The per-pin A evaluation allocates nothing: a call costs the same
   minor words on the sink with the smallest cone as on the one with
   the most pins. *)
let test_cone_slave_arrivals_allocation_free () =
  let comb = cone_comb 3 in
  let lib = Liberty.default () in
  let latch = Liberty.latch lib and clocking = Clocking.of_p 2.0 in
  let sta = Sta.analyse lib Sta.Path_based comb in
  let c = Sta.cone_scratch sta in
  let arcs = Sta.slave_arcs sta ~clocking ~latch in
  let words_per_call s =
    Sta.load_cone sta c ~sink:s;
    ignore (Sta.cone_slave_arrivals sta c arcs : float array);
    let before = Gc.minor_words () in
    for _ = 1 to 100 do
      ignore (Sta.cone_slave_arrivals sta c arcs : float array)
    done;
    (Gc.minor_words () -. before) /. 100.
  in
  let by_size =
    List.sort compare
      (Array.to_list
         (Array.map
            (fun s ->
              Sta.load_cone sta c ~sink:s;
              (Sta.cone_size c, s))
            (Netlist.outputs comb)))
  in
  let small_n, small = List.hd by_size in
  let large_n, large = List.hd (List.rev by_size) in
  Alcotest.(check bool) "cones differ in size" true (large_n > 10 * small_n);
  let w_small = words_per_call small and w_large = words_per_call large in
  Alcotest.(check (float 0.)) "no words per pin" w_small w_large;
  Alcotest.(check (float 0.)) "nothing allocated per call" 0. w_large

let prop_latches_only_delay =
  QCheck.Test.make ~name:"inserting slaves never speeds a path up" ~count:10
    QCheck.(int_bound 20)
    (fun seed ->
      let lib = Liberty.default () in
      let spec =
        { (Option.get (Spec.find "s1196")) with
          Spec.n_gates = 200; depth = 8;
          seed = Printf.sprintf "mono%d" seed }
      in
      let net = Generator.generate spec in
      let comb =
        (Transform.extract_comb (Convert.split Convert.Two net)).Transform.comb
      in
      let sta = Sta.analyse lib Sta.Path_based comb in
      let clocking = Clocking.of_p 2.0 in
      let latch = Liberty.latch lib in
      let plain =
        Sta.forward_with_latches sta ~clocking ~latch
          ~latched:(fun ~v:_ ~pin:_ -> false)
      in
      let rng = Rar_util.Rng.make (seed + 99) in
      let latched_set = Hashtbl.create 16 in
      for v = 0 to Netlist.node_count comb - 1 do
        Array.iteri
          (fun pin _ ->
            if Rar_util.Rng.int rng 4 = 0 then
              Hashtbl.replace latched_set (v, pin) ())
          (Netlist.fanins comb v)
      done;
      let with_latches =
        Sta.forward_with_latches sta ~clocking ~latch
          ~latched:(fun ~v ~pin -> Hashtbl.mem latched_set (v, pin))
      in
      let ok = ref true in
      for v = 0 to Netlist.node_count comb - 1 do
        if
          Liberty.arc_max with_latches.(v)
          < Liberty.arc_max plain.(v) -. 1e-9
        then ok := false
      done;
      !ok)

let test_critical_path_report () =
  let net = chain () in
  let sta = Sta.analyse ~launch:0. chain_lib Sta.Path_based net in
  let po = Option.get (Netlist.find net "po") in
  let steps = Sta.critical_path sta ~sink:po in
  let names = List.map (fun s -> Netlist.node_name net s.Sta.node) steps in
  Alcotest.(check (list string)) "full path" [ "pi"; "g1"; "g2"; "g3"; "po" ]
    names;
  (* increments sum to the arrival *)
  let total = List.fold_left (fun a s -> a +. s.Sta.incr) 0. steps in
  feq "increments sum" (Sta.arrival_at_sink sta po) total;
  let report =
    Sta.report_path sta ~clocking:(Clocking.v ~phi1:1. ~gamma1:0. ~phi2:1. ~gamma2:0.5) ~sink:po
  in
  Alcotest.(check bool) "mentions startpoint" true
    (String.length report > 0 &&
     (let re = "Startpoint: pi" in
      let rec find i =
        i + String.length re <= String.length report
        && (String.sub report i (String.length re) = re || find (i + 1))
      in
      find 0))

let test_critical_path_on_generated () =
  let lib = Liberty.default () in
  let comb = gen_stage "s1196" in
  let sta = Sta.analyse lib Sta.Path_based comb in
  Array.iter
    (fun s ->
      let steps = Sta.critical_path sta ~sink:s in
      (* last step is the sink at its arrival *)
      match List.rev steps with
      | last :: _ ->
        Alcotest.(check int) "ends at sink" s last.Sta.node;
        feq "arrival matches" (Sta.arrival_at_sink sta s) last.Sta.arrival
      | [] -> Alcotest.fail "empty path")
    (Netlist.outputs comb)

let test_rejects_sequential () =
  let b = B.create () in
  let pi = B.add_input b "pi" in
  let ff = B.add_seq b "ff" ~role:Netlist.Flop ~fanin:pi in
  let _ = B.add_output b "po" ~fanin:ff in
  let net = B.freeze b in
  match Sta.analyse (Liberty.default ()) Sta.Path_based net with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection of sequential netlist"

let suite =
  [
    Alcotest.test_case "chain arrivals" `Quick test_chain_arrivals;
    Alcotest.test_case "chain backward delays" `Quick test_chain_backward;
    Alcotest.test_case "latch opening floor" `Quick test_latch_floor;
    Alcotest.test_case "forward_with_latches = plain when unlatched" `Quick
      test_forward_with_latches_matches_plain;
    Alcotest.test_case "gate model pessimistic" `Quick
      test_gate_model_pessimistic;
    Alcotest.test_case "backward_all = max over sinks" `Quick
      test_backward_all_is_max;
    Alcotest.test_case "forward+backward path consistency" `Quick
      test_path_consistency;
    Alcotest.test_case "through matches arrival" `Quick
      test_through_matches_arrival;
    Alcotest.test_case "rejects sequential netlists" `Quick
      test_rejects_sequential;
    QCheck_alcotest.to_alcotest prop_cone_matches_backward;
    QCheck_alcotest.to_alcotest prop_cone_scratch_reused;
    QCheck_alcotest.to_alcotest prop_cone_slave_arrivals;
    QCheck_alcotest.to_alcotest prop_slave_delay_bound;
    Alcotest.test_case "cone A kernel allocation-free" `Quick
      test_cone_slave_arrivals_allocation_free;
    QCheck_alcotest.to_alcotest prop_latches_only_delay;
    Alcotest.test_case "critical path report" `Quick test_critical_path_report;
    Alcotest.test_case "critical path on generated" `Quick
      test_critical_path_on_generated;
  ]
