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
module Suite = Rar_circuits.Suite
module Stage = Rar_retime.Stage
module Rgraph = Rar_retime.Rgraph
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
  let g1 = B.add_gate b "g1" ~fn:Cell_kind.Inv ~fanins:[| pi |] () in
  let g2 = B.add_gate b "g2" ~fn:Cell_kind.Inv ~fanins:[| g1 |] () in
  let g3 = B.add_gate b "g3" ~fn:Cell_kind.Inv ~fanins:[| g2 |] () in
  let _ = B.add_output b "po" ~fanin:g3 in
  B.freeze b

let test_chain_arrivals () =
  let net = chain () in
  let sta = Sta.analyse ~launch:0.2 chain_lib Sta.Path_based net in
  let g3 = Option.get (Netlist.find net "g3") in
  let po = Option.get (Netlist.find net "po") in
  feq "df g3" (0.2 +. (3. *. 0.5)) (Sta.df sta g3);
  feq "sink arrival" 1.7 (Sta.arrival_at_sink sta po)

(* [D^b(v, sink)] per node, the worse of its two polarities. *)
let worst_backward sta sink =
  let { Sta.rise; fall } = Sta.backward_packed sta ~sink in
  Array.map2 Float.max rise fall

let test_chain_backward () =
  let net = chain () in
  let sta = Sta.analyse ~launch:0. chain_lib Sta.Path_based net in
  let po = Option.get (Netlist.find net "po") in
  let db = worst_backward sta po in
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
      (Transform.pin_index net [])
  in
  for v = 0 to Netlist.node_count net - 1 do
    Alcotest.(check int64) "no latches = plain, bitwise"
      (Int64.bits_of_float (Sta.df sta v))
      (Int64.bits_of_float arr.(v))
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
    Array.map (worst_backward sta) (Netlist.outputs comb)
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
              Liberty.
                {
                  rise = Float.max !best.rise out.rise;
                  fall = Float.max !best.fall out.fall;
                })
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
                    let out =
                      Sta.through sta ~driver:u ~via:v (Sta.arrival_arc sta u)
                    in
                    best :=
                      Liberty.
                        {
                          rise = Float.max !best.rise out.rise;
                          fall = Float.max !best.fall out.fall;
                        })
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

(* [sinks] cut into batches of [sizes] (cycled), in order. *)
let batches ?(sizes = [ Sta.lanes ]) sinks =
  let n = Array.length sinks in
  let rec go at sz acc =
    if at >= n then List.rev acc
    else
      let sz = if sz = [] then sizes else sz in
      let k = Int.min (List.hd sz) (n - at) in
      go (at + k) (List.tl sz) (Array.sub sinks at k :: acc)
  in
  go 0 sizes []

(* The scratch loaded with [sinks] against a fresh dense
   [backward_packed] per sink: the union is exactly the union of the
   dense supports, listed once with every node after its fanins; a
   node's lane bit is set iff it is in that lane's support, where its
   delays are bitwise the dense ones, and they are [neg_infinity] off
   it. *)
let batch_matches_dense sta comb b sinks =
  let n = Netlist.node_count comb in
  Sta.load_batch sta b sinks;
  let size = b.Sta.size and order = b.Sta.order in
  let pos = Array.make n (-1) in
  for i = 0 to size - 1 do
    pos.(order.(i)) <- i
  done;
  let dense = Array.map (fun s -> Sta.backward_packed sta ~sink:s) sinks in
  let in_dense l v =
    dense.(l).Sta.rise.(v) > neg_infinity
    || dense.(l).Sta.fall.(v) > neg_infinity
  in
  let lanes = List.init (Array.length sinks) Fun.id in
  let union =
    List.filter
      (fun v -> List.exists (fun l -> in_dense l v) lanes)
      (List.init n Fun.id)
  in
  b.Sta.width = Array.length sinks
  && List.length union = size
  && List.for_all
       (fun v ->
         pos.(v) >= 0
         && Array.for_all (fun u -> pos.(u) < pos.(v)) (Netlist.fanins comb v)
         && List.for_all
              (fun l ->
                let at = (v * Sta.lanes) + l in
                let r = b.Sta.dbr.(at) and f = b.Sta.dbf.(at) in
                if in_dense l v then
                  b.Sta.mask.(v) land (1 lsl l) <> 0
                  && bits r = bits dense.(l).Sta.rise.(v)
                  && bits f = bits dense.(l).Sta.fall.(v)
                else
                  b.Sta.mask.(v) land (1 lsl l) = 0
                  && r = neg_infinity && f = neg_infinity)
              lanes)
       union

let prop_cone_matches_backward =
  QCheck.Test.make ~name:"cone scratch = backward on every node" ~count:10
    QCheck.(int_bound 20)
    (fun seed ->
      let comb = cone_comb seed in
      let sta = Sta.analyse (Liberty.default ()) Sta.Path_based comb in
      List.for_all
        (fun sinks -> batch_matches_dense sta comb (Sta.batch_scratch sta) sinks)
        (batches (Netlist.outputs comb)))

(* One scratch serving many batches back to back — both delay models
   of the same netlist, every sink in reverse, then forward order, in
   batches of 1 to [Sta.lanes] sinks — must keep matching fresh dense
   results: no state leaks between batches or from wider ones. *)
let prop_cone_scratch_reused =
  QCheck.Test.make ~name:"one cone scratch serves many sinks" ~count:5
    QCheck.(int_bound 20)
    (fun seed ->
      let comb = cone_comb seed in
      let lib = Liberty.default () in
      let sinks = Netlist.outputs comb in
      let b = Sta.batch_scratch (Sta.analyse lib Sta.Path_based comb) in
      let sizes = [ 8; 1; 3; 8; 2; 5; 7; 4; 6 ] in
      List.for_all
        (fun model ->
          let sta = Sta.analyse lib model comb in
          let rev = Array.of_list (List.rev (Array.to_list sinks)) in
          List.for_all
            (batch_matches_dense sta comb b)
            (batches ~sizes rev @ batches ~sizes:(List.rev sizes) sinks))
        [ Sta.Path_based; Sta.Gate_based ])

(* [f v p l u] at every fanin pin [p] (driven by [u]) of every
   non-input union node [v] and every lane [l] of the loaded batch,
   after {!Sta.batch_slave_arrivals} of [v]. *)
let for_all_union_pins sta comb b arcs f =
  let cv = Netlist.compact comb in
  let ok = ref true in
  for i = 0 to b.Sta.size - 1 do
    let v = b.Sta.order.(i) in
    if Netlist.kind comb v <> Netlist.Input then begin
      Sta.batch_slave_arrivals sta b arcs v;
      let lo = Netlist.Compact.fanin_lo cv v in
      for p = lo to Netlist.Compact.fanin_hi cv v - 1 do
        for l = 0 to b.Sta.width - 1 do
          if not (f v l (Netlist.Compact.fanin cv p)
                    b.Sta.a.(((p - lo) * Sta.lanes) + l))
          then ok := false
        done
      done
    end
  done;
  !ok

(* The per-pin A kernel over the hoisted slave arcs equals
   [arrival_with_slave_after] bitwise in every lane whose cone holds
   the node, and is [neg_infinity] in the others. *)
let prop_cone_slave_arrivals =
  QCheck.Test.make ~name:"cone A kernel = arrival_with_slave_after" ~count:5
    QCheck.(int_bound 20)
    (fun seed ->
      let comb = cone_comb seed in
      let lib = Liberty.default () in
      let latch = Liberty.latch lib in
      List.for_all
        (fun (model, clocking) ->
          let sta = Sta.analyse lib model comb in
          let b = Sta.batch_scratch sta in
          let arcs = Sta.slave_arcs sta ~clocking ~latch in
          List.for_all
            (fun sinks ->
              Sta.load_batch sta b sinks;
              let db = Array.map (fun s -> Sta.backward_packed sta ~sink:s) sinks in
              for_all_union_pins sta comb b arcs (fun v l u a ->
                  if b.Sta.mask.(v) land (1 lsl l) <> 0 then
                    bits a
                    = bits
                        (Sta.arrival_with_slave_after sta ~clocking ~latch ~u
                           ~v ~db:db.(l))
                  else a = neg_infinity))
            (batches ~sizes:[ 8; 3; 1 ] (Netlist.outputs comb)))
        [ (Sta.Path_based, Clocking.of_p 2.0);
          (Sta.Gate_based, Clocking.of_p3 2.0) ])

(* A chain of ECO edits through [Sta.patch], with the state
   [Stage.patch] carries — the multi-sink backward times and the slave
   arcs — updated in place, equals a fresh analysis of the edited
   netlist after every batch, bitwise: arrivals, backward times by
   polarity, the [backward_all] memo and every pin's slave arc. *)
let prop_patch_chain_carries_bitwise =
  QCheck.Test.make ~name:"patched analysis and carried state = fresh"
    ~count:6 QCheck.(int_bound 50)
    (fun seed ->
      let comb = cone_comb seed in
      let lib = Liberty.default () in
      let latch = Liberty.latch lib in
      let rng = Random.State.make [| 0x5a; seed |] in
      let n = Netlist.node_count comb in
      let gates = Netlist.gates comb in
      let drives = Array.of_list (Liberty.drives lib) in
      let pick a = a.(Random.State.int rng (Array.length a)) in
      let same_bits a b =
        Array.length a = Array.length b
        && Array.for_all2 (fun x y -> bits x = bits y) a b
      in
      List.for_all
        (fun (model, clocking) ->
          let sta = ref (Sta.analyse lib model comb) in
          let db = Sta.backward_all_db !sta in
          let arcs = Sta.slave_arcs !sta ~clocking ~latch in
          let net = ref comb and annot = ref None in
          List.for_all
            (fun _ ->
              let name v = Netlist.node_name !net v in
              let topo = Netlist.topo_comb !net in
              let pos = Array.make n 0 in
              Array.iteri (fun i v -> pos.(v) <- i) topo;
              let edit () =
                let v = pick gates in
                match Random.State.int rng 4 with
                | 0 ->
                  Transform.Edit.Resize { node = name v; drive = pick drives }
                | 1 ->
                  (* rewire a pin to a node earlier in the order: no cycle *)
                  let pin =
                    Random.State.int rng (Array.length (Netlist.fanins !net v))
                  in
                  let earlier =
                    Array.of_list
                      (List.filter
                         (fun u ->
                           pos.(u) < pos.(v) && not (Netlist.is_seq !net u))
                         (Array.to_list
                            (Array.append (Netlist.inputs !net) gates)))
                  in
                  Transform.Edit.Rewire
                    { node = name v; pin; driver = name (pick earlier) }
                | _ ->
                  Transform.Edit.Annotate
                    { node = name v;
                      extra =
                        1e-5 *. float_of_int (1 + Random.State.int rng 5) }
              in
              let applied =
                Transform.Edit.apply ?annot:!annot !net
                  (List.init (1 + Random.State.int rng 3) (fun _ -> edit ()))
              in
              let dirty_arcs = applied.Transform.Edit.dirty_arcs
              and seeds = applied.Transform.Edit.seeds in
              let prev = !sta in
              let patched, changed =
                Sta.patch prev ~net:applied.Transform.Edit.net
                  ~annot:applied.Transform.Edit.annot ~dirty_arcs ~seeds ()
              in
              ignore
                (Sta.patch_backward_all patched ~prev ~db ~dirty_arcs ~seeds
                  : int list);
              Sta.patch_slave_arcs patched arcs ~clocking ~latch ~changed;
              sta := patched;
              net := applied.Transform.Edit.net;
              annot := Some applied.Transform.Edit.annot;
              let fresh =
                Sta.analyse ~annot:applied.Transform.Edit.annot lib model !net
              in
              let fresh_db = Sta.backward_all_db fresh in
              let fresh_arcs = Sta.slave_arcs fresh ~clocking ~latch in
              let arr s =
                Array.init n (fun v -> (Sta.arrival_arc s v).Liberty.rise)
              and arr_f s =
                Array.init n (fun v -> (Sta.arrival_arc s v).Liberty.fall)
              in
              same_bits (arr patched) (arr fresh)
              && same_bits (arr_f patched) (arr_f fresh)
              && same_bits db.Sta.rise fresh_db.Sta.rise
              && same_bits db.Sta.fall fresh_db.Sta.fall
              && same_bits (Sta.backward_all patched) (Sta.backward_all fresh)
              && same_bits arcs.Sta.out_rise fresh_arcs.Sta.out_rise
              && same_bits arcs.Sta.out_fall fresh_arcs.Sta.out_fall)
            (List.init 12 Fun.id))
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
      List.for_all
        (fun (model, clocking) ->
          let sta = Sta.analyse lib model comb in
          match Sta.slave_delay_bound sta ~clocking ~latch with
          | None -> false
          | Some d ->
            let b = Sta.batch_scratch sta in
            let arcs = Sta.slave_arcs sta ~clocking ~latch in
            List.for_all
              (fun sinks ->
                Sta.load_batch sta b sinks;
                for_all_union_pins sta comb b arcs (fun _ l _ a ->
                    a <= Sta.arrival_at_sink sta sinks.(l) +. d +. 1e-12))
              (batches (Netlist.outputs comb)))
        [ (Sta.Path_based, Clocking.of_p 2.0);
          (Sta.Gate_based, Clocking.of_p3 2.0);
          (Sta.Path_based, Clocking.of_p 0.5) ])

(* Loading a batch and evaluating A allocate nothing: the same minor
   words (none) for one sink with the smallest cone as for a full batch
   of the largest ones. *)
let test_cone_slave_arrivals_allocation_free () =
  let comb = cone_comb 3 in
  let lib = Liberty.default () in
  let latch = Liberty.latch lib and clocking = Clocking.of_p 2.0 in
  let sta = Sta.analyse lib Sta.Path_based comb in
  let b = Sta.batch_scratch sta in
  let arcs = Sta.slave_arcs sta ~clocking ~latch in
  let sweep sinks =
    Sta.load_batch sta b sinks;
    for i = 0 to b.Sta.size - 1 do
      Sta.batch_slave_arrivals sta b arcs b.Sta.order.(i)
    done
  in
  let words_per_call sinks =
    sweep sinks;
    let before = Gc.minor_words () in
    for _ = 1 to 100 do
      sweep sinks
    done;
    (Gc.minor_words () -. before) /. 100.
  in
  let by_size =
    List.sort compare
      (Array.to_list
         (Array.map
            (fun s ->
              Sta.load_batch sta b [| s |];
              (b.Sta.size, s))
            (Netlist.outputs comb)))
  in
  let small_n, small = List.hd by_size in
  let large = Array.of_list (List.filteri (fun i _ -> i < Sta.lanes) (List.rev by_size)) in
  Sta.load_batch sta b (Array.map snd large);
  Alcotest.(check bool) "unions differ in size" true (b.Sta.size > 10 * small_n);
  let w_small = words_per_call [| small |]
  and w_large = words_per_call (Array.map snd large) in
  Alcotest.(check (float 0.)) "no words per pin" w_small w_large;
  Alcotest.(check (float 0.)) "nothing allocated per call" 0. w_large

(* The arc fill, the forward sweep and the hoisted slave arcs allocate
   nothing per gate or pin: a call costs the same minor words on a
   2000-gate design as on one a quarter its size, and a few words in
   all. Every array they return is past the minor heap's largest block,
   so the major heap holds it and it does not count. *)
let test_analysis_allocation_free () =
  let lib = Liberty.default () in
  let latch = Liberty.latch lib and clocking = Clocking.of_p 2.0 in
  let comb gates =
    let spec =
      { (Option.get (Spec.find "s1238")) with
        Spec.n_gates = gates; depth = 12; seed = "alloc" }
    in
    (Transform.extract_comb
       (Convert.split Convert.Two (Generator.generate spec)))
      .Transform.comb
  in
  let words f =
    ignore (f ());
    let before = Gc.minor_words () in
    ignore (f ());
    Gc.minor_words () -. before
  in
  let small = comb 500 and large = comb 2000 in
  List.iter
    (fun (what, model) ->
      let per_size f =
        let w_small = words (f small) and w_large = words (f large) in
        Alcotest.(check (float 0.)) (what ^ ": no words per gate") w_small
          w_large;
        Alcotest.(check bool) (what ^ ": a few words per call") true
          (w_large < 64.)
      in
      per_size (fun net () -> Sta.analyse lib model net);
      per_size (fun net ->
          let sta = Sta.analyse lib model net in
          fun () -> Sta.slave_arcs sta ~clocking ~latch))
    [ ("path-based", Sta.Path_based); ("gate-based", Sta.Gate_based) ]

(* Latch-aware arrivals against plain ones, over three kinds of slave
   placement: random slaves (each driver latches a random subset of its
   fanouts), the un-retimed placement, and the decoded G-RAR solution
   of the circuit's stage. *)
let prop_latches_only_delay =
  QCheck.Test.make ~name:"inserting slaves never speeds a path up" ~count:10
    QCheck.(int_bound 20)
    (fun seed ->
      let spec =
        { (Option.get (Spec.find "s1196")) with
          Spec.n_gates = 200; depth = 8;
          seed = Printf.sprintf "mono%d" seed }
      in
      let p = Suite.prepare (Generator.generate spec) in
      let lib = p.Suite.lib and clocking = p.Suite.clocking in
      let comb = p.Suite.cc.Transform.comb in
      let sta = Sta.analyse lib Sta.Path_based comb in
      let rng = Rar_util.Rng.make (seed + 99) in
      let random =
        List.filter_map
          (fun u ->
            match Netlist.kind comb u with
            | Netlist.Output -> None
            | Netlist.Input | Netlist.Gate _ | Netlist.Seq _ ->
              Transform.slave_after comb u ~keep:(fun _ ->
                  Rar_util.Rng.int rng 4 = 0))
          (List.init (Netlist.node_count comb) Fun.id)
      in
      let grar =
        let stage = Result.get_ok (Stage.make ~lib ~clocking p.Suite.cc) in
        let g = Rgraph.build ~edl_overhead:1.0 stage in
        Rgraph.placements_of g (Result.get_ok (Rgraph.solve g))
      in
      List.for_all
        (fun placements ->
          let arr =
            Sta.forward_with_latches sta ~clocking ~latch:(Liberty.latch lib)
              (Transform.pin_index comb placements)
          in
          let ok = ref true in
          for v = 0 to Netlist.node_count comb - 1 do
            if arr.(v) < Sta.df sta v -. 1e-9 then ok := false
          done;
          !ok)
        [ random; Transform.initial_placements comb; grar ])

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
    QCheck_alcotest.to_alcotest prop_patch_chain_carries_bitwise;
    Alcotest.test_case "cone A kernel allocation-free" `Quick
      test_cone_slave_arrivals_allocation_free;
    Alcotest.test_case "arc fill and slave arcs allocation-free" `Quick
      test_analysis_allocation_free;
    QCheck_alcotest.to_alcotest prop_latches_only_delay;
    Alcotest.test_case "critical path report" `Quick test_critical_path_report;
    Alcotest.test_case "critical path on generated" `Quick
      test_critical_path_on_generated;
  ]
