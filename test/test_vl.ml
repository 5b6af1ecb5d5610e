(* Virtual-library engine tests: seeding, typed-constraint honouring,
   the mandatory fix and the optional post-retiming swap. *)

module Netlist = Rar_netlist.Netlist
module Liberty = Rar_liberty.Liberty
module Clocking = Rar_sta.Clocking
module Spec = Rar_circuits.Spec
module Generator = Rar_circuits.Generator
module Suite = Rar_circuits.Suite
module Stage = Rar_retime.Stage
module Outcome = Rar_retime.Outcome
module Engine = Rar_engine

let prepared =
  lazy
    (let spec =
       { (Option.get (Spec.find "s1423")) with Spec.n_gates = 400; depth = 12 }
     in
     Suite.prepare (Generator.generate spec))

let stage =
  lazy
    (match Engine.stage_of (Lazy.force prepared) with
     | Ok st -> st
     | Error e -> failwith (Rar_retime.Error.to_string e))

let run_engine ?post_swap ?movable_moves spec c =
  match
    Engine.run
      (Engine.config ?post_swap ?movable_moves ~c spec)
      (Lazy.force stage)
  with
  | Ok r -> r
  | Error e -> Alcotest.fail (Rar_retime.Error.to_string e)

let run ?post_swap variant c = run_engine ?post_swap (Engine.Vl variant) c
let variants = Engine.[ Nvl; Evl; Rvl ]

let retype (r : Engine.result) =
  match r.Engine.extras with
  | Engine.Retype { initial_ed; forced_to_ed; _ } -> (initial_ed, forced_to_ed)
  | _ -> Alcotest.fail "a VL run reports its retyping"

(* Variant-by-variant timing cleanliness is covered by Test_engine's
   registry-wide legality sweep. *)

let test_rvl_seed_is_nce () =
  let initial_ed, _ = retype (run Engine.Rvl 1.0) in
  let nce = Stage.near_critical_initial (Lazy.force stage) in
  Alcotest.(check (list int)) "seed = NCE set" (List.sort compare nce)
    (List.sort compare initial_ed)

let test_evl_seeds_everything () =
  let initial_ed, _ = retype (run Engine.Evl 1.0) in
  Alcotest.(check int) "all masters seeded"
    (Array.length (Stage.sinks (Lazy.force stage)))
    (List.length initial_ed)

let test_nvl_honours_types () =
  (* NVL: every master the retimer could satisfy must be verified
     non-ED; leftovers are exactly the forced fixes. *)
  let r = run Engine.Nvl 1.0 in
  let _, forced_to_ed = retype r in
  let o = r.Engine.outcome in
  List.iter
    (fun s ->
      let hopeless =
        match Stage.classify (Lazy.force stage) s with
        | Stage.Always_ed -> true
        | _ -> false
      in
      Alcotest.(check bool) "ED master is hopeless or forced" true
        (hopeless || List.mem s forced_to_ed))
    o.Outcome.ed_sinks

let test_post_swap_only_shrinks () =
  List.iter
    (fun variant ->
      let with_swap = run ~post_swap:true variant 2.0 in
      let without = run ~post_swap:false variant 2.0 in
      let label = Engine.label (Engine.Vl variant) in
      Alcotest.(check bool)
        (label ^ " swap shrinks EDL set")
        true
        (Outcome.ed_count with_swap.Engine.outcome
        <= Outcome.ed_count without.Engine.outcome);
      Alcotest.(check bool)
        (label ^ " swap shrinks area")
        true
        (with_swap.Engine.outcome.Outcome.seq_area
        <= without.Engine.outcome.Outcome.seq_area +. 1e-9))
    variants

let test_evl_without_swap_pays_everywhere () =
  (* Without the swap, EVL's area charges c for every master. *)
  let o = (run ~post_swap:false Engine.Evl 2.0).Engine.outcome in
  Alcotest.(check int) "all masters error-detecting" o.Outcome.n_masters
    (Outcome.ed_count o)

let test_nvl_constrained_vs_base () =
  (* NVL's typed setups can only demand more (or equally many) slaves
     than unconstrained base retiming under the same movement-minimal
     objective. *)
  let nvl = run Engine.Nvl 1.0 in
  let b = run_engine Engine.Base 1.0 in
  Alcotest.(check bool) "nvl slaves >= base slaves" true
    (nvl.Engine.outcome.Outcome.n_slaves >= b.Engine.outcome.Outcome.n_slaves)

let test_movable_never_worse () =
  let m = run_engine ~movable_moves:3 Engine.Movable 1.0 in
  match m.Engine.extras with
  | Engine.Moves { moves_tried; fixed_total_area; _ } ->
    Alcotest.(check bool) "movable <= fixed" true
      (m.Engine.outcome.Outcome.total_area <= fixed_total_area +. 1e-9);
    Alcotest.(check bool) "tried bounded" true (moves_tried <= 3)
  | _ -> Alcotest.fail "a movable run reports its moves"

let suite =
  [
    Alcotest.test_case "RVL seeds the NCE set" `Quick test_rvl_seed_is_nce;
    Alcotest.test_case "EVL seeds everything" `Quick test_evl_seeds_everything;
    Alcotest.test_case "NVL honours non-ED types" `Quick
      test_nvl_honours_types;
    Alcotest.test_case "post-swap only shrinks" `Quick
      test_post_swap_only_shrinks;
    Alcotest.test_case "EVL without swap pays everywhere" `Quick
      test_evl_without_swap_pays_everywhere;
    Alcotest.test_case "NVL at least as many slaves as base" `Quick
      test_nvl_constrained_vs_base;
    Alcotest.test_case "movable masters never worse" `Quick
      test_movable_never_worse;
  ]
