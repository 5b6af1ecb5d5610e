(* Classic Leiserson–Saxe retiming, validated on the canonical
   correlator example (original period 24, minimum period 13). *)

module Netlist = Rar_netlist.Netlist
module Cell_kind = Rar_netlist.Cell_kind
module Liberty = Rar_liberty.Liberty
module Classic = Rar_retime.Classic
module Difflp = Rar_flow.Difflp
module Spec = Rar_circuits.Spec
module Generator = Rar_circuits.Generator
module B = Netlist.Builder

(* delta cells (buf) have delay 3, adders (and) delay 7, as in the
   paper's Figure 1 correlator *)
let lib =
  let latch =
    { Liberty.seq_area = 1.; d_to_q = 0.; ck_to_q = 0.; setup = 0.;
      seq_input_cap = 0. }
  in
  Liberty.synthetic ~name:"correlator" ~latch ~flop:latch
    ~cells:[ ((Cell_kind.Buf, 1), 1., 3.0); ((Cell_kind.And, 1), 1., 7.0) ]

let correlator () =
  let b = B.create ~name:"correlator" () in
  let pi = B.add_input b "x" in
  let f0 = B.add_seq b "f0" ~role:Netlist.Flop ~fanin:pi in
  let d1 = B.add_gate b "d1" ~fn:Cell_kind.Buf ~fanins:[| f0 |] () in
  let f1 = B.add_seq b "f1" ~role:Netlist.Flop ~fanin:d1 in
  let d2 = B.add_gate b "d2" ~fn:Cell_kind.Buf ~fanins:[| f1 |] () in
  let f2 = B.add_seq b "f2" ~role:Netlist.Flop ~fanin:d2 in
  let d3 = B.add_gate b "d3" ~fn:Cell_kind.Buf ~fanins:[| f2 |] () in
  let a3 = B.add_gate b "a3" ~fn:Cell_kind.And ~fanins:[| d3; d3 |] () in
  let a2 = B.add_gate b "a2" ~fn:Cell_kind.And ~fanins:[| d2; a3 |] () in
  let a1 = B.add_gate b "a1" ~fn:Cell_kind.And ~fanins:[| d1; a2 |] () in
  let _ = B.add_output b "y" ~fanin:a1 in
  B.freeze b

let graph () = Classic.of_netlist ~lib (correlator ())

let test_period_of () =
  Alcotest.(check (float 1e-9)) "original period 24" 24. (Classic.period_of (graph ()))

let test_min_period () =
  Alcotest.(check (float 1e-9)) "min period 13" 13. (Classic.min_period (graph ()))

let test_feasibility_boundaries () =
  let g = graph () in
  Alcotest.(check bool) "13 feasible" true (Classic.feasible g ~period:13.);
  Alcotest.(check bool) "12.9 infeasible" false (Classic.feasible g ~period:12.9);
  Alcotest.(check bool) "24 feasible" true (Classic.feasible g ~period:24.)

let test_retime_to_min () =
  let g = graph () in
  match Classic.retime g ~period:13. with
  | Error e -> Alcotest.fail (Rar_retime.Error.to_string e)
  | Ok o ->
    Alcotest.(check bool) "achieves 13" true
      (o.Classic.achieved_period <= 13. +. 1e-9);
    Alcotest.(check int) "original registers" 3 o.Classic.registers_before;
    Alcotest.(check bool) "netlist valid" true
      (Netlist.validate o.Classic.retimed = Ok ());
    (* the retimed netlist re-derives to a graph meeting the period *)
    let g' = Classic.of_netlist ~lib o.Classic.retimed in
    Alcotest.(check bool) "rederived period" true
      (Classic.period_of g' <= 13. +. 1e-9)

let test_engines_agree () =
  let g = graph () in
  match
    (Classic.retime ~engine:Difflp.Network_simplex g ~period:13.,
     Classic.retime ~engine:Difflp.Ssp g ~period:13.)
  with
  | Ok a, Ok b ->
    Alcotest.(check int) "same register count" a.Classic.registers_after
      b.Classic.registers_after
  | Error e, _ | _, Error e -> Alcotest.fail (Rar_retime.Error.to_string e)

let test_zero_cycle_rejected () =
  (* a purely combinational PI -> PO path must be rejected without
     environment registers *)
  let b = B.create ~name:"comb" () in
  let pi = B.add_input b "a" in
  let g = B.add_gate b "g" ~fn:Cell_kind.Buf ~fanins:[| pi |] () in
  let _ = B.add_output b "y" ~fanin:g in
  let net = B.freeze b in
  (match Classic.of_netlist ~lib net with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected zero-weight cycle rejection");
  (* with one environment register it is accepted *)
  ignore (Classic.of_netlist ~host_registers:1 ~lib net)

let test_closure_rejected () =
  match Classic.retime ~engine:Difflp.Closure (graph ()) ~period:13. with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "closure engine must be rejected"

let test_generated_circuit () =
  (* min-period retiming on a generated benchmark: the retimed period
     can only improve, and register counts stay positive/finite *)
  let spec =
    { (Option.get (Spec.find "s1196")) with Spec.n_gates = 150; depth = 8 }
  in
  let net = Generator.generate spec in
  let lib = Liberty.default () in
  let g = Classic.of_netlist ~host_registers:1 ~lib net in
  let p0 = Classic.period_of g in
  let pmin = Classic.min_period g in
  Alcotest.(check bool) "min <= original" true (pmin <= p0 +. 1e-9);
  match Classic.retime g ~period:pmin with
  | Error e -> Alcotest.fail (Rar_retime.Error.to_string e)
  | Ok o ->
    (* moving registers changes fanout loads, so the re-measured period
       may drift slightly above the load-frozen optimum — the same
       effect the paper's size-only incremental compile cleans up *)
    Alcotest.(check bool)
      (Printf.sprintf "achieved %.3f vs predicted %.3f"
         o.Classic.achieved_period pmin)
      true
      (o.Classic.achieved_period <= (pmin *. 1.15) +. 1e-6);
    Alcotest.(check bool) "valid" true
      (Netlist.validate o.Classic.retimed = Ok ())

(* ------------------------------------------------------------------ *)
(* Matrix-free FEAS route                                              *)
(* ------------------------------------------------------------------ *)

let test_feas_correlator () =
  let g = graph () in
  (match Classic.feas g ~period:13. with
  | None -> Alcotest.fail "13 must be FEAS-feasible"
  | Some (r, achieved) ->
    Alcotest.(check bool) "achieved <= 13" true (achieved <= 13. +. 1e-9);
    Alcotest.(check int) "host normalised" 0 r.(0));
  (* |V| is small, so the |V|-1 bound binds before the patience window
     and None is a proof — it must agree with [feasible] *)
  Alcotest.(check bool) "12.9 infeasible" true
    (Classic.feas g ~period:12.9 = None)

let test_min_period_feas_correlator () =
  let g = graph () in
  let _, p = Classic.min_period_feas g in
  Alcotest.(check (float 1e-9)) "FEAS min period 13" 13. p;
  match Classic.retime_feas g with
  | Error e -> Alcotest.fail (Rar_retime.Error.to_string e)
  | Ok o ->
    Alcotest.(check bool) "achieves 13" true
      (o.Classic.achieved_period <= 13. +. 1e-9);
    Alcotest.(check int) "original registers" 3 o.Classic.registers_before;
    Alcotest.(check bool) "netlist valid" true
      (Netlist.validate o.Classic.retimed = Ok ())

let test_feas_generated () =
  let spec =
    { (Option.get (Spec.find "s1196")) with Spec.n_gates = 150; depth = 8 }
  in
  let net = Generator.generate spec in
  let lib = Liberty.default () in
  let g = Classic.of_netlist ~host_registers:1 ~lib net in
  let p0 = Classic.period_of g in
  let pmin = Classic.min_period g in
  let r, p_feas = Classic.min_period_feas g in
  (* FEAS cannot beat the W/D-exact optimum and never loses to the
     unretimed graph *)
  Alcotest.(check bool)
    (Printf.sprintf "min %.3f <= feas %.3f <= original %.3f" pmin p_feas p0)
    true
    (p_feas >= pmin -. 1e-9 && p_feas <= p0 +. 1e-9);
  Alcotest.(check int) "host normalised" 0 r.(0);
  (* warm-starting from the result must confirm its own period *)
  (match Classic.feas ~init:r g ~period:p_feas with
  | None -> Alcotest.fail "own period must be feasible from warm start"
  | Some (_, achieved) ->
    Alcotest.(check bool) "no worse from warm start" true
      (achieved <= p_feas +. 1e-9));
  match Classic.retime_feas g with
  | Error e -> Alcotest.fail (Rar_retime.Error.to_string e)
  | Ok o ->
    Alcotest.(check bool) "retimed netlist valid" true
      (Netlist.validate o.Classic.retimed = Ok ());
    Alcotest.(check bool) "register count positive" true
      (o.Classic.registers_after > 0)

let test_feas_init_length_mismatch () =
  let g = graph () in
  match Classic.feas ~init:[| 0 |] g ~period:13. with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument on init length mismatch"

(* ------------------------------------------------------------------ *)
(* Sparse W/D kernel vs the retained dense Floyd–Warshall reference    *)
(* ------------------------------------------------------------------ *)

module Wd = Rar_retime.Wd

(* Random retiming graph with integral delays (so path-delay sums are
   exact in floating point regardless of association order).
   Zero-weight edges only go forward in vertex order, so no
   zero-weight cycle can form. *)
let random_wd_graph seed =
  let rng = Random.State.make [| 0x5eed; seed |] in
  let n = 2 + Random.State.int rng 7 in
  let delays =
    Array.init n (fun _ -> float_of_int (1 + Random.State.int rng 9))
  in
  let m = Random.State.int rng (3 * n) in
  let edges =
    List.init m (fun _ ->
        let u = Random.State.int rng n and v = Random.State.int rng n in
        let w =
          if u < v then Random.State.int rng 3
          else 1 + Random.State.int rng 2
        in
        (u, v, w))
  in
  (n, delays, edges)

let prop_wd_sparse_matches_dense =
  QCheck.Test.make ~name:"sparse W/D = dense Floyd-Warshall" ~count:500
    QCheck.small_int
    (fun seed ->
      let n, delays, edges = random_wd_graph seed in
      let t = Wd.build ~n ~delays ~edges in
      let w_s, d_s = Wd.to_dense t in
      let w_d, d_d = Wd_ref.floyd_warshall ~n ~delays ~edges in
      w_s = w_d && d_s = d_d)

let prop_period_edges_matches_matrix =
  QCheck.Test.make
    ~name:"clock period from edges = clock period from W/D tables" ~count:500
    QCheck.small_int
    (fun seed ->
      let n, delays, edges = random_wd_graph seed in
      let t = Wd.build ~n ~delays ~edges in
      Wd.max_zero_weight_delay_edges ~n ~delays ~edges
      = Wd.max_zero_weight_delay t)

let prop_wd_constraints_match_dense_scan =
  QCheck.Test.make
    ~name:"lazy period constraints = dense scan (values and order)"
    ~count:500 QCheck.small_int
    (fun seed ->
      let n, delays, edges = random_wd_graph seed in
      let t = Wd.build ~n ~delays ~edges in
      let w_m, d_m = Wd_ref.floyd_warshall ~n ~delays ~edges in
      (* probe a handful of periods spanning the D range *)
      let rng = Random.State.make [| 0xbeef; seed |] in
      let ds = Wd.distinct_d_values t in
      let periods =
        [ -1.; Random.State.float rng 50.;
          ds.(Random.State.int rng (Array.length ds));
          ds.(Array.length ds - 1) ]
      in
      List.for_all
        (fun period ->
          let sparse = ref [] in
          Wd.iter_over_period t ~period (fun u v w ->
              sparse := (u, v, w) :: !sparse);
          let dense = ref [] in
          for u = 0 to n - 1 do
            for v = 0 to n - 1 do
              if u <> v && w_m.(u).(v) < Wd.big
                 && d_m.(u).(v) > period +. 1e-9
              then dense := (u, v, w_m.(u).(v)) :: !dense
            done
          done;
          !sparse = !dense)
        periods)

(* The same cross-check on the real circuits the rest of the file
   uses: matrices bitwise-equal and the period-constraint stream
   identical at every candidate period. Together these make the
   sparse-kernel [min_period]/[retime] byte-identical to the dense
   path (identical candidate sets, identical LP/SPFA inputs). *)
(* D path sums are accumulated left-to-right by the sparse kernel but
   by Floyd–Warshall's segment merges in the dense reference — the
   same real number, associated differently, so entries may differ by
   an ulp (~1e-16 relative). That is 6 orders of magnitude below the
   1e-9 epsilon every downstream comparison uses; integral-delay
   graphs (the qcheck properties above, and the correlator) are exact
   in every association and must match bitwise. *)
let d_matches a b =
  a = b
  || (a > neg_infinity && b > neg_infinity
      && Float.abs (a -. b) <= 1e-12 *. Float.max 1. (Float.abs b))

let check_circuit_matches_dense ?(exact_d = false) ~lib net name g =
  let t = Classic.wd g in
  let w_s, d_s = Wd.to_dense t in
  let w_d, d_d = Wd_ref.classic ~lib net g in
  Alcotest.(check bool) (name ^ ": W sparse = dense") true (w_s = w_d);
  let n = Classic.node_count g in
  let d_ok = ref true in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if
        if exact_d then d_s.(u).(v) <> d_d.(u).(v)
        else not (d_matches d_s.(u).(v) d_d.(u).(v))
      then d_ok := false
    done
  done;
  Alcotest.(check bool)
    (name ^ if exact_d then ": D sparse = dense" else ": D within 1 ulp")
    true !d_ok;
  (* the dense constraint scan, at a spread of candidate periods:
     same pairs, same bounds, same emission order *)
  let candidates = Wd.distinct_d_values t in
  let m = Array.length candidates in
  List.iter
    (fun period ->
      let dense = ref [] in
      for u = n - 1 downto 0 do
        for v = n - 1 downto 0 do
          if u <> v && w_d.(u).(v) < Wd.big && d_d.(u).(v) > period +. 1e-9
          then dense := (u, v, w_d.(u).(v)) :: !dense
        done
      done;
      let sparse = ref [] in
      Wd.iter_over_period t ~period (fun u v w ->
          sparse := (u, v, w) :: !sparse);
      Alcotest.(check bool)
        (Printf.sprintf "%s: constraint stream at period %g" name period)
        true
        (List.rev !sparse = !dense))
    [ candidates.(0); candidates.(m / 2); candidates.(m - 1);
      Classic.min_period g ];
  (* End-to-end: re-run the binary search the dense path used to run
     (dense matrices, dense constraint scan, cold SPFA) and check the
     sparse [min_period] agrees, then compare the full [retime]
     outcome at both periods — identical retiming vector, register
     count and achieved period. *)
  let dense_arcs period =
    let arcs = ref [] in
    for u = n - 1 downto 0 do
      for v = n - 1 downto 0 do
        if u <> v && w_d.(u).(v) < Wd.big && d_d.(u).(v) > period +. 1e-9
        then arcs := (u, v, w_d.(u).(v) - 1) :: !arcs
      done
    done;
    (* [constraint_arcs] at an infinite period emits no period
       constraints: exactly the fan-out arcs of Eq. 3. *)
    Array.append
      (Classic.constraint_arcs g ~period:infinity)
      (Array.of_list !arcs)
  in
  let values = Hashtbl.create 64 in
  Array.iter
    (fun row ->
      Array.iter
        (fun d -> if d > neg_infinity then Hashtbl.replace values d ())
        row)
    d_d;
  let cand_d =
    Array.of_list
      (List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) values []))
  in
  let lo = ref 0 and hi = ref (Array.length cand_d - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    match
      Rar_flow.Spfa.from_virtual_root ~n ~arcs:(dense_arcs cand_d.(mid)) ()
    with
    | Ok _ -> hi := mid
    | Error _ -> lo := mid + 1
  done;
  let p_dense = cand_d.(!lo) in
  let p_sparse = Classic.min_period g in
  Alcotest.(check bool)
    (Printf.sprintf "%s: min_period %.17g within 1 ulp of dense %.17g" name
       p_sparse p_dense)
    true
    (if exact_d then p_sparse = p_dense else d_matches p_sparse p_dense);
  match (Classic.retime g ~period:p_sparse, Classic.retime g ~period:p_dense)
  with
  | Error e, _ | _, Error e -> Alcotest.fail (Rar_retime.Error.to_string e)
  | Ok a, Ok b ->
    Alcotest.(check bool) (name ^ ": same retiming vector") true
      (a.Classic.r = b.Classic.r);
    Alcotest.(check int)
      (name ^ ": same register count")
      b.Classic.registers_after a.Classic.registers_after;
    Alcotest.(check bool)
      (name ^ ": same achieved period")
      true
      (a.Classic.achieved_period = b.Classic.achieved_period)

let test_sparse_vs_dense_correlator () =
  (* integral delays: every association is exact, so bitwise equal *)
  let net = correlator () in
  check_circuit_matches_dense ~exact_d:true ~lib net "correlator"
    (Classic.of_netlist ~lib net)

let test_sparse_vs_dense_fig4 () =
  let net = (Rar_circuits.Fig4.circuit ()).Rar_netlist.Transform.comb in
  let lib4 = Rar_circuits.Fig4.library () in
  let g = Classic.of_netlist ~host_registers:1 ~lib:lib4 net in
  check_circuit_matches_dense ~lib:lib4 net "fig4" g;
  (* outcome sanity on the worked example *)
  let pmin = Classic.min_period g in
  Alcotest.(check bool) "fig4 min <= original" true
    (pmin <= Classic.period_of g +. 1e-9);
  match Classic.retime g ~period:pmin with
  | Error e -> Alcotest.fail (Rar_retime.Error.to_string e)
  | Ok o ->
    Alcotest.(check bool) "fig4 retimed valid" true
      (Netlist.validate o.Classic.retimed = Ok ())

let test_sparse_vs_dense_generated () =
  let spec =
    { (Option.get (Spec.find "s1196")) with Spec.n_gates = 150; depth = 8 }
  in
  let net = Generator.generate spec in
  let lib = Liberty.default () in
  let g = Classic.of_netlist ~host_registers:1 ~lib net in
  check_circuit_matches_dense ~lib net "s1196-small" g

let test_sparse_vs_dense_s1423 () =
  let net = Generator.generate (Option.get (Spec.find "s1423")) in
  let lib = Liberty.default () in
  let g = Classic.of_netlist ~host_registers:1 ~lib net in
  check_circuit_matches_dense ~lib net "s1423" g

let suite =
  [
    Alcotest.test_case "correlator original period" `Quick test_period_of;
    Alcotest.test_case "correlator min period = 13" `Quick test_min_period;
    Alcotest.test_case "feasibility boundaries" `Quick
      test_feasibility_boundaries;
    Alcotest.test_case "retime to min period" `Quick test_retime_to_min;
    Alcotest.test_case "simplex and ssp agree" `Quick test_engines_agree;
    Alcotest.test_case "closure rejected" `Quick test_closure_rejected;
    Alcotest.test_case "zero-weight cycle rejected" `Quick
      test_zero_cycle_rejected;
    Alcotest.test_case "generated circuit min-period" `Quick
      test_generated_circuit;
    Alcotest.test_case "FEAS on the correlator" `Quick test_feas_correlator;
    Alcotest.test_case "FEAS min period = 13 on the correlator" `Quick
      test_min_period_feas_correlator;
    Alcotest.test_case "FEAS brackets [min_period, period_of]" `Quick
      test_feas_generated;
    Alcotest.test_case "FEAS rejects a mismatched warm start" `Quick
      test_feas_init_length_mismatch;
    QCheck_alcotest.to_alcotest prop_period_edges_matches_matrix;
    QCheck_alcotest.to_alcotest prop_wd_sparse_matches_dense;
    QCheck_alcotest.to_alcotest prop_wd_constraints_match_dense_scan;
    Alcotest.test_case "sparse = dense on correlator" `Quick
      test_sparse_vs_dense_correlator;
    Alcotest.test_case "sparse = dense on fig4" `Quick
      test_sparse_vs_dense_fig4;
    Alcotest.test_case "sparse = dense on generated s1196" `Quick
      test_sparse_vs_dense_generated;
    Alcotest.test_case "sparse = dense on full s1423" `Slow
      test_sparse_vs_dense_s1423;
  ]
