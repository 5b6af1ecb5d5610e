(* Tests for the min-cost-flow / difference-LP engines. The central
   property: network simplex, SSP and the closure reduction must agree
   with brute-force enumeration on every feasible instance whose
   solutions live in the {-1, 0} window (the shape of all retiming
   LPs). *)

module Difflp = Rar_flow.Difflp
module Problem = Rar_flow.Problem
module Ssp = Rar_flow.Ssp
module Netsimplex = Rar_flow.Netsimplex
module Closure = Rar_flow.Closure
module Spfa = Rar_flow.Spfa
module Maxflow = Rar_flow.Maxflow
module Certificate = Rar_flow.Certificate
module Rng = Rar_util.Rng

let feq = Alcotest.(check (float 1e-6))

(* --- direct flow-problem tests ----------------------------------- *)

(* A 4-node chain: supply 2 at node 0, demand 2 at node 3; two routes
   with different costs. *)
let mk_chain () =
  let p = Problem.create ~n:4 in
  ignore (Problem.add_arc p ~src:0 ~dst:1 ~cost:1);
  ignore (Problem.add_arc p ~src:1 ~dst:3 ~cost:1);
  ignore (Problem.add_arc p ~src:0 ~dst:2 ~cost:2);
  ignore (Problem.add_arc p ~src:2 ~dst:3 ~cost:3);
  Problem.add_demand p 0 (-2.);
  Problem.add_demand p 3 2.;
  p

let test_ssp_chain () =
  match Ssp.solve (mk_chain ()) with
  | Error e -> Alcotest.fail e
  | Ok s ->
    feq "cheap route" 4. s.Ssp.objective;
    feq "flow arc0" 2. s.Ssp.flow.(0);
    feq "flow arc2" 0. s.Ssp.flow.(2)

let test_simplex_chain () =
  match Netsimplex.solve (mk_chain ()) with
  | Error e -> Alcotest.fail (Netsimplex.error_to_string e)
  | Ok s -> feq "cheap route" 4. s.Netsimplex.objective

let test_flow_infeasible () =
  let p = Problem.create ~n:3 in
  ignore (Problem.add_arc p ~src:0 ~dst:1 ~cost:0);
  (* node 2 is isolated but demands flow *)
  Problem.add_demand p 0 (-1.);
  Problem.add_demand p 2 1.;
  (match Ssp.solve p with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "ssp should detect infeasibility");
  match Netsimplex.solve p with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "simplex should detect infeasibility"

let test_unbalanced_demand () =
  let p = Problem.create ~n:2 in
  ignore (Problem.add_arc p ~src:0 ~dst:1 ~cost:0);
  Problem.add_demand p 1 1.;
  (match Ssp.solve p with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "ssp should reject unbalanced demands");
  match Netsimplex.solve p with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "simplex should reject unbalanced demands"

let test_negative_cycle_detected () =
  let arcs = [| (0, 1, -1); (1, 2, 0); (2, 0, 0) |] in
  match Spfa.from_virtual_root ~n:3 ~arcs () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "spfa should detect the negative cycle"

(* --- maxflow ------------------------------------------------------ *)

let test_maxflow_classic () =
  (* Classic 6-node example with max flow 19. *)
  let mf = Maxflow.create ~n:6 () in
  let e s d c = Maxflow.add_edge mf ~src:s ~dst:d ~cap:c in
  e 0 1 10.; e 0 2 10.; e 1 2 2.; e 1 3 4.; e 1 4 8.; e 2 4 9.;
  e 4 3 6.; e 3 5 10.; e 4 5 10.;
  feq "max flow" 19. (Maxflow.run mf ~source:0 ~sink:5)

let test_mincut_side () =
  let mf = Maxflow.create ~n:3 () in
  Maxflow.add_edge mf ~src:0 ~dst:1 ~cap:1.;
  Maxflow.add_edge mf ~src:1 ~dst:2 ~cap:5.;
  ignore (Maxflow.run mf ~source:0 ~sink:2);
  let side = Maxflow.min_cut_source_side mf ~source:0 in
  Alcotest.(check (list bool)) "cut after saturated edge" [ true; false; false ]
    (Array.to_list side)

(* --- closure ------------------------------------------------------ *)

(* Closure instances are binary difference constraints
   [r(u) - r(v) <= bound] with selection meaning [r = -1]. *)
let closure_instance ~profit ~reference cons =
  let pick f = Array.of_list (List.map f cons) in
  {
    Closure.n = Array.length profit;
    profit;
    m = List.length cons;
    u = pick (fun (u, _, _) -> u);
    v = pick (fun (_, v, _) -> v);
    bound = pick (fun (_, _, b) -> b);
    reference;
  }

let test_closure_simple () =
  (* Selecting 0 (profit 3) requires 1 (profit -1): net +2, do it.
     Node 2 (profit -5) alone: don't. Node 3 is the reference. *)
  let inst =
    closure_instance ~profit:[| 3.; -1.; -5.; 0. |] ~reference:3
      [ (1, 0, 0) ]
  in
  match Closure.solve inst with
  | Error e -> Alcotest.fail e
  | Ok o ->
    feq "profit" 2. o.Closure.best_profit;
    Alcotest.(check (list bool)) "selection" [ true; true; false; false ]
      (Array.to_list o.Closure.selected)

let test_closure_contradiction () =
  (* Selecting 0 requires 1, but 0 is forced selected and 1, the
     reference, is rejected. *)
  let inst =
    closure_instance ~profit:[| 0.; 0. |] ~reference:1
      [ (1, 0, 0); (0, 1, -1) ]
  in
  match Closure.solve inst with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected contradiction"

(* --- difference LP: known instances ------------------------------- *)

(* min r1 - r2 (coeffs +1, -1) with r free in {-1,0} relative to r0=0:
   best is r1 = -1, r2 = 0, objective -1. *)
let binary_window lp reference vars =
  List.iter
    (fun v ->
      Difflp.add_constraint lp ~u:v ~v:reference ~bound:0;
      Difflp.add_constraint lp ~u:reference ~v ~bound:1)
    vars

let test_difflp_known () =
  List.iter
    (fun engine ->
      let lp = Difflp.create ~n:3 in
      binary_window lp 0 [ 1; 2 ];
      Difflp.add_objective lp 1 1.;
      Difflp.add_objective lp 2 (-1.);
      match Difflp.solve ~engine lp ~reference:0 with
      | Error e -> Alcotest.fail (Difflp.engine_name engine ^ ": " ^ e)
      | Ok r ->
        feq
          (Difflp.engine_name engine ^ " objective")
          (-1.)
          (Difflp.objective_value lp r);
        Alcotest.(check int) "r0 pinned" 0 r.(0))
    Difflp.all_engines

let test_difflp_forced () =
  (* r1 <= -1 (forced) and implication chain r2 <= r1. *)
  List.iter
    (fun engine ->
      let lp = Difflp.create ~n:3 in
      binary_window lp 0 [ 1; 2 ];
      Difflp.add_constraint lp ~u:1 ~v:0 ~bound:(-1);
      Difflp.add_constraint lp ~u:2 ~v:1 ~bound:0;
      (* zero-sum objective pulling r2 up *)
      Difflp.add_objective lp 2 (-1.);
      Difflp.add_objective lp 1 1.;
      match Difflp.solve ~engine lp ~reference:0 with
      | Error e -> Alcotest.fail (Difflp.engine_name engine ^ ": " ^ e)
      | Ok r ->
        Alcotest.(check int) (Difflp.engine_name engine ^ " r1") (-1) r.(1);
        (* objective -r2 + r1 is minimised at r2 = 0? No: r2 <= r1 = -1,
           so r2 = -1; objective = 1 - 1 + ... = -1 + 1 * (-1)?  Work it
           out: obj = 1*r1 + (-1)*r2 = -1 - r2, r2 in {-1}, so 0. *)
        Alcotest.(check int) (Difflp.engine_name engine ^ " r2") (-1) r.(2))
    Difflp.all_engines

let test_difflp_slack () =
  let lp = Difflp.create ~n:3 in
  binary_window lp 0 [ 1; 2 ];
  Difflp.add_constraint lp ~u:1 ~v:0 ~bound:(-1);
  (* trivially true: dropped *)
  Difflp.add_constraint lp ~u:2 ~v:2 ~bound:0;
  Difflp.add_constraint lp ~u:2 ~v:1 ~bound:0;
  Alcotest.(check int) "count" 6 (Difflp.constraint_count lp);
  let r = [| 0; -1; -1 |] in
  Alcotest.(check (list int)) "slacks" [ 1; 0; 1; 0; 0; 0 ]
    (List.init 6 (Difflp.slack lp r));
  Alcotest.check_raises "past the end"
    (Invalid_argument "Difflp.slack: constraint 6 out of range") (fun () ->
      ignore (Difflp.slack lp r 6))

let test_difflp_infeasible () =
  List.iter
    (fun engine ->
      let lp = Difflp.create ~n:2 in
      binary_window lp 0 [ 1 ];
      Difflp.add_constraint lp ~u:1 ~v:0 ~bound:(-1);
      Difflp.add_constraint lp ~u:0 ~v:1 ~bound:0;
      (* r1 <= -1 and r1 >= 0: infeasible *)
      match Difflp.solve ~engine lp ~reference:0 with
      | Error _ -> ()
      | Ok _ ->
        Alcotest.fail (Difflp.engine_name engine ^ ": expected infeasible"))
    Difflp.all_engines

let test_simplex_pivot_cap_fallback () =
  (* With an absurd pivot cap the simplex must fail cleanly... *)
  let p = mk_chain () in
  (match Netsimplex.solve ~max_pivots:0 p with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected pivot-cap error");
  (* ...and Difflp's default engine must fall back to SSP on such
     failures (exercised indirectly: the public API never exposes the
     cap, so solve a normal instance and cross-check the engines). *)
  match (Netsimplex.solve p, Ssp.solve p) with
  | Ok a, Ok b ->
    feq "fallback-equivalent objectives" a.Netsimplex.objective b.Ssp.objective
  | _ -> Alcotest.fail "solvers failed"

let test_zero_demand_instance () =
  (* all-zero demands: the empty flow is optimal, potentials still give
     a feasible r *)
  let p = Problem.create ~n:3 in
  ignore (Problem.add_arc p ~src:0 ~dst:1 ~cost:1);
  ignore (Problem.add_arc p ~src:1 ~dst:2 ~cost:1);
  (match Ssp.solve p with
  | Ok s -> feq "zero objective" 0. s.Ssp.objective
  | Error e -> Alcotest.fail e);
  match Netsimplex.solve p with
  | Ok s -> feq "zero objective" 0. s.Netsimplex.objective
  | Error e -> Alcotest.fail (Netsimplex.error_to_string e)

let test_fractional_demands () =
  (* fanout-sharing breadths: 1/3 units routed exactly *)
  let p = Problem.create ~n:2 in
  ignore (Problem.add_arc p ~src:0 ~dst:1 ~cost:2);
  Problem.add_demand p 0 (-.(1. /. 3.));
  Problem.add_demand p 1 (1. /. 3.);
  match (Ssp.solve p, Netsimplex.solve p) with
  | Ok a, Ok b ->
    feq "ssp fractional" (2. /. 3.) a.Ssp.objective;
    feq "simplex fractional" (2. /. 3.) b.Netsimplex.objective
  | _ -> Alcotest.fail "solver failed"

let test_lp_format () =
  let lp = Difflp.create ~n:3 in
  binary_window lp 0 [ 1; 2 ];
  Difflp.add_objective lp 1 1.;
  Difflp.add_objective lp 2 (-0.5);
  let text = Difflp.to_lp_format lp ~name:(Printf.sprintf "r%d") in
  List.iter
    (fun needle ->
      let rec find i =
        i + String.length needle <= String.length text
        && (String.sub text i (String.length needle) = needle || find (i + 1))
      in
      Alcotest.(check bool) ("contains " ^ needle) true (find 0))
    [ "Minimize"; "Subject To"; "r1 - r0 <= 0"; "r0 - r1 <= 1"; "Bounds";
      "End" ]

(* --- property: engines vs brute force ----------------------------- *)

let random_instance rng =
  let n = 2 + Rng.int rng 5 in
  let lp = Difflp.create ~n in
  let reference = 0 in
  binary_window lp reference (List.init (n - 1) (fun i -> i + 1));
  (* random extra difference constraints *)
  let extra = Rng.int rng (2 * n) in
  for _ = 1 to extra do
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v then
      Difflp.add_constraint lp ~u ~v ~bound:(Rng.range rng (-1) 1)
  done;
  (* zero-sum objective built from transfer pairs *)
  let pairs = 1 + Rng.int rng (2 * n) in
  for _ = 1 to pairs do
    let u = Rng.int rng n and v = Rng.int rng n in
    let a = [| 0.25; 0.5; 1.0; 2.0 |].(Rng.int rng 4) in
    Difflp.add_objective lp u a;
    Difflp.add_objective lp v (-.a)
  done;
  (lp, reference)

let prop_engines_match_brute =
  QCheck.Test.make ~name:"all engines match brute force" ~count:300
    QCheck.small_int
    (fun seed ->
      let rng = Rng.make (seed * 2654435761) in
      let lp, reference = random_instance rng in
      let brute = Difflp.solve_brute lp ~lo:(-1) ~hi:0 ~reference in
      List.for_all
        (fun engine ->
          match (Difflp.solve ~engine lp ~reference, brute) with
          | Ok r, Some (_, best) ->
            Float.abs (Difflp.objective_value lp r -. best) < 1e-6
          | Error _, None -> true
          | Ok _, None -> false (* engine "solved" an infeasible instance *)
          | Error _, Some _ -> false (* engine failed a feasible instance *))
        Difflp.all_engines)

let prop_solutions_feasible =
  QCheck.Test.make ~name:"engine solutions satisfy all constraints" ~count:300
    QCheck.small_int
    (fun seed ->
      let rng = Rng.make ((seed + 7919) * 1597334677) in
      let lp, reference = random_instance rng in
      List.for_all
        (fun engine ->
          match Difflp.solve ~engine lp ~reference with
          | Error _ -> true
          | Ok r -> Difflp.check lp r = Ok () && r.(reference) = 0)
        Difflp.all_engines)

(* --- property: block pricing vs the Dantzig reference rule -------- *)

(* Instances big enough (hundreds of arcs) that the rotating-block
   scan actually visits several blocks rather than degenerating to one
   full sweep. *)
let random_flow_problem rng =
  let n = 16 + Rng.int rng 48 in
  let p = Problem.create ~n in
  for _ = 1 to n * 6 do
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v then
      ignore (Problem.add_arc p ~src:u ~dst:v ~cost:(Rng.int rng 5))
  done;
  (* balanced random demands routed along an added backbone so the
     instance is likely feasible *)
  for v = 0 to n - 2 do
    ignore (Problem.add_arc p ~src:v ~dst:(v + 1) ~cost:1);
    ignore (Problem.add_arc p ~src:(v + 1) ~dst:v ~cost:1)
  done;
  let total = ref 0. in
  for v = 0 to n - 2 do
    let d = float_of_int (Rng.range rng (-3) 3) in
    Problem.add_demand p v d;
    total := !total +. d
  done;
  Problem.add_demand p (n - 1) (-. !total);
  p

let prop_block_matches_dantzig =
  QCheck.Test.make ~name:"block pricing matches dantzig pricing" ~count:150
    QCheck.small_int
    (fun seed ->
      let rng = Rng.make ((seed + 13) * 1103515245) in
      let p = random_flow_problem rng in
      let certified (s : Netsimplex.solution) =
        Certificate.is_optimal
          (Certificate.check p ~flow:s.Netsimplex.flow
             ~potentials:s.Netsimplex.potentials)
      in
      match
        ( Netsimplex.solve ~pricing:Netsimplex.Block p,
          Netsimplex.solve ~pricing:Netsimplex.Dantzig p )
      with
      | Ok a, Ok b ->
        (* both rules must land on an optimal basis with the same
           objective (the basis itself may differ: alternate optima) *)
        Float.abs (a.Netsimplex.objective -. b.Netsimplex.objective) < 1e-6
        && certified a && certified b
      | Error ea, Error eb -> ea = eb
      | Ok _, Error _ | Error _, Ok _ -> false)

let test_engines_agree_medium_scale () =
  (* one medium-size instance (hundreds of variables), beyond what the
     qcheck shrinker explores *)
  let rng = Rng.make 20260706 in
  let n = 400 in
  let lp = Difflp.create ~n in
  binary_window lp 0 (List.init (n - 1) (fun i -> i + 1));
  for _ = 1 to 1600 do
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v then Difflp.add_constraint lp ~u ~v ~bound:(Rng.range rng 0 1)
  done;
  for _ = 1 to 800 do
    let u = Rng.int rng n and v = Rng.int rng n in
    let a = [| 0.25; 0.5; 1.0; 2.0 |].(Rng.int rng 4) in
    Difflp.add_objective lp u a;
    Difflp.add_objective lp v (-.a)
  done;
  let objs =
    List.map
      (fun engine ->
        match Difflp.solve ~engine lp ~reference:0 with
        | Ok r -> Difflp.objective_value lp r
        | Error e -> Alcotest.fail (Difflp.engine_name engine ^ ": " ^ e))
      Difflp.all_engines
  in
  match objs with
  | x :: rest ->
    List.iter (fun y -> feq "engines agree at scale" x y) rest
  | [] -> Alcotest.fail "no engines"

(* --- default engine: closure on binary-window LPs ------------------ *)

(* Every optimal {-1, 0} solution by enumeration, as the sets of
   variables at -1. *)
let optimal_sets lp ~reference best =
  let n = Difflp.var_count lp in
  let r = Array.make n 0 in
  let acc = ref [] in
  let rec go v =
    if v = n then begin
      if Difflp.check lp r = Ok ()
         && Float.abs (Difflp.objective_value lp r -. best) < 1e-6
      then acc := Array.map (fun x -> x = -1) r :: !acc
    end
    else if v = reference then go (v + 1)
    else
      List.iter
        (fun x ->
          r.(v) <- x;
          go (v + 1))
        [ -1; 0 ]
  in
  go 0;
  !acc

let prop_auto_is_closure =
  QCheck.Test.make
    ~name:"auto picks closure on binary-window LPs: = simplex = brute, minimal"
    ~count:300 QCheck.small_int (fun seed ->
      (* a clean engine: the CI fault matrix would route the primary
         attempt to the network-simplex fallback *)
      Rar_resilience.Faults.disable ();
      Fun.protect ~finally:Rar_resilience.Faults.use_env @@ fun () ->
      let rng = Rng.make ((seed + 101) * 2246822519) in
      let lp, reference = random_instance rng in
      let brute = Difflp.solve_brute lp ~lo:(-1) ~hi:0 ~reference in
      Difflp.default_engine lp ~reference = Difflp.Closure
      &&
      match
        ( Difflp.solve lp ~reference,
          Difflp.solve ~engine:Difflp.Network_simplex lp ~reference,
          brute )
      with
      | Ok auto, Ok ns, Some (_, best) ->
        let obj = Difflp.objective_value lp in
        Float.abs (obj auto -. best) < 1e-6
        && Float.abs (obj ns -. best) < 1e-6
        && Difflp.solve ~engine:Difflp.Closure lp ~reference = Ok auto
        (* the residual source side is the minimal optimum: its r = -1
           set is contained in every optimal solution's *)
        && List.for_all
             (fun set ->
               Array.for_all Fun.id
                 (Array.mapi (fun v x -> x = 0 || set.(v)) auto))
             (optimal_sets lp ~reference best)
      | Error _, Error _, None -> true
      | _ -> false)

(* --- the solve cache key covers the whole instance ------------------ *)

(* A binary-window LP as data, so it can be rebuilt and mutated. Every
   extra bound is chosen so a random {-1, 0} assignment satisfies it:
   the instance is feasible and its bounds range over -1 .. 1. *)
type lp_spec = { n : int; cons : (int * int * int) array; obj : float array }

let random_spec rng =
  let n = 3 + Rng.int rng 4 in
  let x = Array.init n (fun v -> if v = 0 then 0 else -Rng.int rng 2) in
  let window =
    List.concat_map (fun v -> [ (v, 0, 0); (0, v, 1) ]) (List.init (n - 1) succ)
  in
  let extra =
    List.filter_map
      (fun _ ->
        let u = Rng.int rng n and v = Rng.int rng n in
        if u = v then None
        else Some (u, v, Int.min 1 (x.(u) - x.(v) + Rng.int rng 2)))
      (List.init (1 + Rng.int rng (2 * n)) Fun.id)
  in
  let obj = Array.make n 0. in
  for _ = 0 to Rng.int rng (2 * n) do
    let u = Rng.int rng n and v = Rng.int rng n in
    let a = [| 0.25; 0.5; 1.0; 2.0 |].(Rng.int rng 4) in
    obj.(u) <- obj.(u) +. a;
    obj.(v) <- obj.(v) -. a
  done;
  { n; cons = Array.of_list (window @ extra); obj }

let lp_of_spec { n; cons; obj } =
  let lp = Difflp.create ~n in
  Array.iter (fun (u, v, bound) -> Difflp.add_constraint lp ~u ~v ~bound) cons;
  Array.iteri (Difflp.add_objective lp) obj;
  lp

let prop_cache_key_complete =
  QCheck.Test.make
    ~name:"solve cache: a rebuild hits, every single mutation misses"
    ~count:200 QCheck.small_int (fun seed ->
      let module Metrics = Rar_obs.Metrics in
      Rar_resilience.Faults.disable ();
      Metrics.reset ();
      Metrics.arm ();
      Fun.protect
        ~finally:(fun () ->
          Metrics.disarm ();
          Metrics.reset ();
          Rar_resilience.Faults.use_env ())
      @@ fun () ->
      let hits () = Metrics.value (Metrics.counter "difflp_cache_hits") in
      let rng = Rng.make ((seed + 31) * 2654435761) in
      let spec = random_spec rng in
      let m = Array.length spec.cons in
      (* a cache that has solved [spec] once *)
      let primed ?engine () =
        let cache = Difflp.create_cache () in
        let r = Difflp.solve ?engine ~cache (lp_of_spec spec) ~reference:0 in
        (cache, r)
      in
      let cache, first = primed () in
      let before = hits () in
      let again = Difflp.solve ~cache (lp_of_spec spec) ~reference:0 in
      if not (Result.is_ok first && again = first && hits () = before + 1) then
        QCheck.Test.fail_report "an identical rebuild missed";
      let with_cons cons = { spec with cons } in
      let set i c =
        let cons = Array.copy spec.cons in
        cons.(i) <- c;
        with_cons cons
      in
      let i = Rng.int rng m in
      let u, v, b = spec.cons.(i) in
      let other = List.find (fun x -> x <> u && x <> v) [ 0; 1; 2 ] in
      (* a constraint other than [i]'s: the window arcs are distinct *)
      let j =
        let rec differing j =
          if spec.cons.(j) <> spec.cons.(i) then j else differing ((j + 1) mod m)
        in
        differing (Rng.int rng m)
      in
      let swapped =
        let cons = Array.copy spec.cons in
        cons.(i) <- spec.cons.(j);
        cons.(j) <- spec.cons.(i);
        with_cons cons
      in
      let k = Rng.int rng spec.n in
      let obj = Array.copy spec.obj in
      obj.(k) <- Float.succ obj.(k);
      (* (mutation, instance, reference, priming engine, engine). The
         default engine of [spec] is closure; the moved reference is
         primed and solved with network simplex so that it cannot hide
         behind the default engine switching. *)
      let ns = Some Difflp.Network_simplex in
      let mutations =
        [
          ("one bound", set i (u, v, b + 1), 0, None, None);
          ("one endpoint", set i (other, v, b), 0, None, None);
          ("one coefficient", { spec with obj }, 0, None, None);
          ( "last constraint dropped",
            with_cons (Array.sub spec.cons 0 (m - 1)),
            0,
            None,
            None );
          ("two constraints swapped", swapped, 0, None, None);
          ("another reference", spec, 1, ns, ns);
          ("another engine", spec, 0, None, ns);
        ]
      in
      List.iter
        (fun (what, s, reference, prime, engine) ->
          let cache, _ = primed ?engine:prime () in
          let before = hits () in
          let cached = Difflp.solve ?engine ~cache (lp_of_spec s) ~reference in
          if hits () <> before then QCheck.Test.fail_reportf "%s hit" what;
          if cached <> Difflp.solve ?engine (lp_of_spec s) ~reference then
            QCheck.Test.fail_reportf "%s: cached answer differs" what)
        mutations;
      true)

let test_scan_rejects () =
  let window_lp () =
    let lp = Difflp.create ~n:4 in
    binary_window lp 0 [ 1; 2; 3 ];
    Difflp.add_constraint lp ~u:2 ~v:1 ~bound:0;
    Difflp.add_objective lp 1 1.;
    Difflp.add_objective lp 3 (-1.);
    lp
  in
  Alcotest.(check bool) "window LP defaults to closure" true
    (Difflp.default_engine (window_lp ()) ~reference:0 = Difflp.Closure);
  let unbounded =
    (* variable 3 lacks its lower window arc: r(3) may fall below -1 *)
    let lp = Difflp.create ~n:4 in
    binary_window lp 0 [ 1; 2 ];
    Difflp.add_constraint lp ~u:3 ~v:0 ~bound:0;
    Difflp.add_constraint lp ~u:3 ~v:1 ~bound:0;
    Difflp.add_objective lp 3 1.;
    Difflp.add_objective lp 2 (-1.);
    lp
  in
  let deep =
    let lp = window_lp () in
    Difflp.add_constraint lp ~u:3 ~v:2 ~bound:(-2);
    lp
  in
  List.iter
    (fun (what, lp) ->
      Alcotest.(check bool) (what ^ ": default is network simplex") true
        (Difflp.default_engine lp ~reference:0 = Difflp.Network_simplex);
      let show = function
        | Ok r ->
          "ok " ^ String.concat "," (List.map string_of_int (Array.to_list r))
        | Error e -> "error " ^ e
      in
      Alcotest.(check string) (what ^ ": auto = explicit network simplex")
        (show (Difflp.solve ~engine:Difflp.Network_simplex lp ~reference:0))
        (show (Difflp.solve lp ~reference:0)))
    [ ("unbounded variable", unbounded); ("bound below -1", deep) ]

(* A 100 000-node path: one augmenting path of depth 10^5. With the
   fiber stack capped far below what a recursive DFS would need (~4
   words per frame), the run only completes if the DFS is iterative. *)
let test_maxflow_long_chain () =
  let n = 100_000 in
  let mf = Maxflow.create ~n () in
  for i = 0 to n - 2 do
    Maxflow.add_edge mf ~src:i ~dst:(i + 1)
      ~cap:(if i = n / 2 then 1.5 else 2.)
  done;
  let g = Gc.get () in
  let value =
    Fun.protect
      ~finally:(fun () -> Gc.set g)
      (fun () ->
        Gc.set { g with Gc.stack_limit = 1 lsl 17 };
        Maxflow.run mf ~source:0 ~sink:(n - 1))
  in
  feq "bottleneck value" 1.5 value;
  let side = Maxflow.min_cut_source_side mf ~source:0 in
  Alcotest.(check bool) "cut right after the bottleneck" true
    (side.(n / 2) && not side.((n / 2) + 1));
  Alcotest.(check bool) "certified" true
    (Maxflow.certify mf ~source:0 ~sink:(n - 1) ~side = Ok ())

let test_maxflow_certificate_rejects () =
  let mf = Maxflow.create ~n:3 () in
  Maxflow.add_edge mf ~src:0 ~dst:1 ~cap:1.;
  Maxflow.add_edge mf ~src:1 ~dst:2 ~cap:5.;
  ignore (Maxflow.run mf ~source:0 ~sink:2);
  (* a valid cut that is not minimum: capacity 5 <> flow 1 *)
  match Maxflow.certify mf ~source:0 ~sink:2 ~side:[| true; true; false |] with
  | Ok () -> Alcotest.fail "a non-minimum cut must fail the certificate"
  | Error _ -> ()

let test_maxflow_deadline () =
  let n = 5_000 in
  let mf = Maxflow.create ~n () in
  for i = 0 to n - 2 do
    Maxflow.add_edge mf ~src:i ~dst:(i + 1) ~cap:1.
  done;
  match
    Maxflow.run ~deadline:(Rar_util.Deadline.make ~budget_s:0.) mf ~source:0
      ~sink:(n - 1)
  with
  | exception Rar_util.Deadline.Expired { phase; _ } ->
    Alcotest.(check string) "phase" "maxflow" phase
  | _ -> Alcotest.fail "maxflow must hit the deadline"

let suite =
  [
    Alcotest.test_case "ssp on a chain" `Quick test_ssp_chain;
    Alcotest.test_case "simplex on a chain" `Quick test_simplex_chain;
    Alcotest.test_case "infeasible flow detected" `Quick test_flow_infeasible;
    Alcotest.test_case "unbalanced demand rejected" `Quick test_unbalanced_demand;
    Alcotest.test_case "negative cycle detected" `Quick test_negative_cycle_detected;
    Alcotest.test_case "maxflow classic" `Quick test_maxflow_classic;
    Alcotest.test_case "mincut side" `Quick test_mincut_side;
    Alcotest.test_case "closure simple" `Quick test_closure_simple;
    Alcotest.test_case "closure contradiction" `Quick test_closure_contradiction;
    Alcotest.test_case "difflp known optimum" `Quick test_difflp_known;
    Alcotest.test_case "difflp forced values" `Quick test_difflp_forced;
    Alcotest.test_case "difflp slack" `Quick test_difflp_slack;
    Alcotest.test_case "difflp infeasible" `Quick test_difflp_infeasible;
    Alcotest.test_case "simplex pivot cap" `Quick
      test_simplex_pivot_cap_fallback;
    Alcotest.test_case "zero demands" `Quick test_zero_demand_instance;
    Alcotest.test_case "fractional demands" `Quick test_fractional_demands;
    Alcotest.test_case "lp format export" `Quick test_lp_format;
    Alcotest.test_case "engines agree at medium scale" `Quick
      test_engines_agree_medium_scale;
    QCheck_alcotest.to_alcotest prop_engines_match_brute;
    QCheck_alcotest.to_alcotest prop_solutions_feasible;
    QCheck_alcotest.to_alcotest prop_block_matches_dantzig;
    QCheck_alcotest.to_alcotest prop_auto_is_closure;
    QCheck_alcotest.to_alcotest prop_cache_key_complete;
    Alcotest.test_case "scan rejects non-binary LPs" `Quick test_scan_rejects;
    Alcotest.test_case "maxflow 100k chain, iterative DFS" `Quick
      test_maxflow_long_chain;
    Alcotest.test_case "maxflow certificate rejects a non-minimum cut" `Quick
      test_maxflow_certificate_rejects;
    Alcotest.test_case "maxflow honours the deadline" `Quick
      test_maxflow_deadline;
  ]
