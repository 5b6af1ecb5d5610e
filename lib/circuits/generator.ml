module Netlist = Rar_netlist.Netlist
module Cell_kind = Rar_netlist.Cell_kind
module Rng = Rar_util.Rng
module B = Netlist.Builder

(* Weighted gate-kind mix of a typical mapped netlist. *)
let kind_weights =
  [
    (Cell_kind.Nand, 24);
    (Cell_kind.Nor, 14);
    (Cell_kind.Inv, 15);
    (Cell_kind.And, 10);
    (Cell_kind.Or, 9);
    (Cell_kind.Xor, 7);
    (Cell_kind.Xnor, 3);
    (Cell_kind.Aoi21, 6);
    (Cell_kind.Oai21, 4);
    (Cell_kind.Buf, 3);
    (Cell_kind.Mux2, 5);
  ]

let total_weight = List.fold_left (fun a (_, w) -> a + w) 0 kind_weights

let pick_kind rng =
  let x = Rng.int rng total_weight in
  let rec go acc = function
    | [] -> Cell_kind.Nand
    | (k, w) :: rest -> if x < acc + w then k else go (acc + w) rest
  in
  go 0 kind_weights

let is_nary = function
  | Cell_kind.And | Cell_kind.Or | Cell_kind.Nand | Cell_kind.Nor
  | Cell_kind.Xor | Cell_kind.Xnor ->
    true
  | Cell_kind.Buf | Cell_kind.Inv | Cell_kind.Aoi21 | Cell_kind.Oai21
  | Cell_kind.Mux2 ->
    false

let arity_of rng k =
  match Cell_kind.arity k with
  | Some a -> a
  | None -> if Rng.int rng 10 < 8 then 2 else 3

type gate = {
  id : int;
  layer : int;
  kind : Cell_kind.t;
  mutable fanins : int list; (* in pin order; may grow via absorption *)
}

let generate (spec : Spec.t) =
  let rng = Rng.of_string spec.seed in
  let b = B.create ~name:spec.name () in
  let pis =
    Array.init spec.n_pi (fun i -> B.add_input b (Printf.sprintf "pi%d" i))
  in
  let flops =
    Array.init spec.n_flops (fun i ->
        B.add_seq_deferred b (Printf.sprintf "ff%d" i) ~role:Netlist.Flop)
  in
  let sources = Array.append pis flops in
  let fanout_count = Hashtbl.create (spec.n_gates * 2) in
  let bump v =
    Hashtbl.replace fanout_count v
      (1 + Option.value ~default:0 (Hashtbl.find_opt fanout_count v))
  in
  let fanouts_of v =
    Option.value ~default:0 (Hashtbl.find_opt fanout_count v)
  in
  (* Layer widths: taper from wide shallow logic to a narrow critical
     tip, like a synthesised cone-of-logic profile; the tip width tracks
     the NCE target so deep dangling gates are consumed by endpoints. *)
  let depth = max 4 spec.depth in
  let widths = Array.make depth 0 in
  let taper l =
    (* 1.5 at layer 0 down to 0.35 at the last layer *)
    1.5 -. (1.15 *. float_of_int l /. float_of_int (depth - 1))
  in
  let taper_total = ref 0. in
  for l = 0 to depth - 1 do
    taper_total := !taper_total +. taper l
  done;
  let assigned = ref 0 in
  for l = 0 to depth - 1 do
    let w =
      max 1
        (int_of_float
           (Float.round (float_of_int spec.n_gates *. taper l /. !taper_total)))
    in
    let w =
      if l >= depth - 2 then min w (max 2 (spec.nce_target / 2)) else w
    in
    widths.(l) <- w;
    assigned := !assigned + w
  done;
  (* Distribute the remainder over the first half. *)
  let remaining = ref (spec.n_gates - !assigned) in
  while !remaining > 0 do
    let l = Rng.int rng (max 1 (depth / 2)) in
    widths.(l) <- widths.(l) + 1;
    decr remaining
  done;
  while !remaining < 0 do
    let l = Rng.int rng (max 1 (depth / 2)) in
    if widths.(l) > 1 then begin
      widths.(l) <- widths.(l) - 1;
      incr remaining
    end
  done;
  let layers = Array.make depth [||] in
  for l = 0 to depth - 1 do
    let prev =
      if l = 0 then sources else Array.map (fun g -> g.id) layers.(l - 1)
    in
    let any_earlier () =
      (* Side pins: mostly register/PI control signals (sources feed
         logic at every depth in real netlists — this is what keeps a
         deep retiming cut expensive), else a uniformly earlier layer. *)
      if Rng.int rng 100 < spec.src_bias_pct then Rng.pick rng sources
      else begin
        let li = Rng.int rng (l + 1) in
        if li = 0 then Rng.pick rng sources
        else (Rng.pick rng layers.(li - 1)).id
      end
    in
    let mk i =
      let kind = pick_kind rng in
      let arity = arity_of rng kind in
      let pin0 = Rng.pick rng prev in
      let rest =
        List.init (arity - 1) (fun _ ->
            if Rng.int rng 10 < 5 then Rng.pick rng prev else any_earlier ())
      in
      let fanins = pin0 :: rest in
      List.iter bump fanins;
      let id = B.add_gate_deferred b (Printf.sprintf "g%d_%d" l i) ~fn:kind () in
      { id; layer = l; kind; fanins }
    in
    layers.(l) <- Array.init widths.(l) mk
  done;
  let all_gates = Array.concat (Array.to_list layers) in
  (* [all_gates] is layer-ascending (creation order within a layer), so
     band filters are contiguous runs and "deepest dangling first" is a
     per-layer scan — the index structures below answer the endpoint /
     absorption queries the old O(G)-per-query list filters answered,
     in O(depth + log G), without touching the RNG stream: a query
     draws from the RNG only in exactly the cases the filters did, with
     the same range. *)
  let module ISet = Set.Make (Int) in
  (* Positions (indices into [all_gates]) of still-dangling gates, per
     layer; min element = earliest-created dangling gate of the layer. *)
  let dangling_at = Array.make depth ISet.empty in
  let pos_of_id = Hashtbl.create (2 * spec.n_gates) in
  Array.iteri
    (fun i g ->
      Hashtbl.replace pos_of_id g.id i;
      if fanouts_of g.id = 0 then
        dangling_at.(g.layer) <- ISet.add i dangling_at.(g.layer))
    all_gates;
  (* From here on every fanout bump also retires the gate from its
     dangling set (fanout counts never return to 0). *)
  let bump v =
    bump v;
    match Hashtbl.find_opt pos_of_id v with
    | Some i ->
      let g = all_gates.(i) in
      dangling_at.(g.layer) <- ISet.remove i dangling_at.(g.layer)
    | None -> ()
  in
  (* Endpoint drivers: [nce_target] endpoints hang off the deepest
     layers, the rest off the shallow-to-middle band; dangling gates in
     the band are consumed first. *)
  let n_endpoints = spec.n_flops + spec.n_po in
  (* Deep endpoints spread across [0.60, 1.0) of the depth: with the
     critical path at 72% of P, that puts their initial-latch arrivals
     throughout the resiliency window — most retimable, the deepest few
     genuinely stuck, which is the NCE profile the paper's Tables I/VI
     imply. *)
  let deep_cut = max 0 (depth * 60 / 100) in
  let shallow_lo = max 0 (depth * 15 / 100) in
  let shallow_hi = max (shallow_lo + 1) (depth * 52 / 100) in
  let in_band lo hi g = g.layer >= lo && g.layer < hi in
  let static_band lo hi =
    Array.of_list
      (List.filter (in_band lo hi) (Array.to_list all_gates))
  in
  let band_deep = static_band deep_cut depth in
  let band_shallow = static_band shallow_lo shallow_hi in
  (* Earliest-created dangling gate of the deepest (or shallowest)
     non-empty layer of the band — the gate the old
     filter/stable-sort pipeline put first. *)
  let first_dangling ~lo ~hi ~deep_first =
    let rec down l =
      if l < lo then None
      else if ISet.is_empty dangling_at.(l) then down (l - 1)
      else Some (ISet.min_elt dangling_at.(l))
    and up l =
      if l >= hi then None
      else if ISet.is_empty dangling_at.(l) then up (l + 1)
      else Some (ISet.min_elt dangling_at.(l))
    in
    if deep_first then down (hi - 1) else up lo
  in
  let pick_driver ~band ~lo ~hi ~deep_first =
    (* Endpoints soak up dangling gates from the deep end first (deep
       band) so no deep dangle leaks into an extra primary output. *)
    let g =
      match first_dangling ~lo ~hi ~deep_first with
      | Some i -> all_gates.(i)
      | None ->
        if Array.length band = 0 then Rng.pick rng all_gates
        else band.(Rng.int rng (Array.length band))
    in
    bump g.id;
    g.id
  in
  let endpoint_deep = Array.make n_endpoints false in
  let idx = Array.init n_endpoints (fun i -> i) in
  Rng.shuffle rng idx;
  Array.iteri
    (fun k i -> if k < spec.nce_target then endpoint_deep.(i) <- true)
    idx;
  let driver_of i =
    if endpoint_deep.(i) then
      pick_driver ~band:band_deep ~lo:deep_cut ~hi:depth ~deep_first:true
    else
      pick_driver ~band:band_shallow ~lo:shallow_lo ~hi:shallow_hi
        ~deep_first:false
  in
  let flop_driver = Array.init spec.n_flops driver_of in
  for i = 0 to spec.n_po - 1 do
    ignore
      (B.add_output b
         (Printf.sprintf "po%d" i)
         ~fanin:(driver_of (spec.n_flops + i)))
  done;
  (* Absorb remaining dangling gates / unused sources as extra fanins
     of downstream n-ary gates (deepest dangle first). The n-ary gate
     set is static and layer-ascending in [all_gates] order, so "n-ary
     gates strictly deeper than [layer]" is a suffix of one
     precomputed array. *)
  let nary_arr =
    Array.of_list (List.filter (fun g -> is_nary g.kind) (Array.to_list all_gates))
  in
  let n_nary = Array.length nary_arr in
  (* nary_ge.(l) = first index of [nary_arr] at layer >= l *)
  let nary_ge = Array.make (depth + 1) n_nary in
  (let cursor = ref 0 in
   for l = 0 to depth - 1 do
     nary_ge.(l) <- !cursor;
     while !cursor < n_nary && nary_arr.(!cursor).layer = l do
       incr cursor
     done
   done);
  let nary_after layer =
    let start = if layer + 1 > depth then n_nary else nary_ge.(Int.max 0 (layer + 1)) in
    let len = n_nary - start in
    if len = 0 then None else Some nary_arr.(start + Rng.int rng len)
  in
  let extra_po = ref 0 in
  let absorb v layer =
    match nary_after layer with
    | Some g ->
      g.fanins <- g.fanins @ [ v ];
      bump v
    | None ->
      incr extra_po;
      ignore (B.add_output b (Printf.sprintf "po_x%d" !extra_po) ~fanin:v);
      bump v
  in
  for l = depth - 1 downto 0 do
    Array.iter
      (fun g -> if fanouts_of g.id = 0 then absorb g.id g.layer)
      layers.(l)
  done;
  Array.iter (fun s -> if fanouts_of s = 0 then absorb s (-1)) sources;
  (* Materialise connections. *)
  Array.iter
    (fun g -> B.connect b g.id ~fanins:(Array.of_list g.fanins))
    all_gates;
  Array.iteri
    (fun i ff -> B.connect b ff ~fanins:[| flop_driver.(i) |])
    flops;
  B.freeze b

(* ------------------------------------------------------------------ *)
(* Pipelined-datapath family                                           *)
(* ------------------------------------------------------------------ *)

(* A register-balanced arithmetic pipeline in the style of the
   BlackParrot FPU retiming patch, where the latency is a knob
   ([latency_p] there, [stages] here): each stage is a full
   ripple-carry add/mix over [width] bits — a long carry chain, the
   profile retiming feeds on — followed by a flop bank, with the
   carry-out registered and folded into the next stage's second
   operand. Deterministic from [seed]. *)
let pipeline ?(width = 32) ?(seed = "") ~stages () =
  if stages < 1 then invalid_arg "Generator.pipeline: stages must be >= 1";
  if width < 2 then invalid_arg "Generator.pipeline: width must be >= 2";
  let name = Printf.sprintf "pipe%dx%d" stages width in
  let seed = if seed = "" then name else seed in
  let rng = Rng.of_string seed in
  let b = B.create ~name () in
  let a = Array.init width (fun i -> B.add_input b (Printf.sprintf "a%d" i)) in
  let bv = Array.init width (fun i -> B.add_input b (Printf.sprintf "b%d" i)) in
  let gate nm fn fanins = B.add_gate b nm ~fn ~fanins () in
  let cur = ref a and aux = ref bv in
  let cout = ref (-1) in
  for s = 0 to stages - 1 do
    let nm fmt i = Printf.sprintf "s%d_%s%d" s fmt i in
    let x = !cur and y = !aux in
    let sum = Array.make width (-1) in
    sum.(0) <- gate (nm "sum" 0) Cell_kind.Xor [| x.(0); y.(0) |];
    let carry = ref (gate (nm "c" 0) Cell_kind.And [| x.(0); y.(0) |]) in
    for i = 1 to width - 1 do
      let p = gate (nm "p" i) Cell_kind.Xor [| x.(i); y.(i) |] in
      let g = gate (nm "g" i) Cell_kind.And [| x.(i); y.(i) |] in
      sum.(i) <- gate (nm "sum" i) Cell_kind.Xor [| p; !carry |];
      let t = gate (nm "t" i) Cell_kind.And [| p; !carry |] in
      carry := gate (nm "c" i) Cell_kind.Or [| g; t |]
    done;
    let bank =
      Array.init width (fun i ->
          B.add_seq b (Printf.sprintf "r%d_%d" s i) ~role:Netlist.Flop
            ~fanin:sum.(i))
    in
    cout := B.add_seq b (Printf.sprintf "r%d_c" s) ~role:Netlist.Flop
              ~fanin:!carry;
    (* Second operand of the next stage: the bank rotated by a seeded
       amount, with the registered carry-out folded into bit 0 — keeps
       every flop (including the carry) on a live path. *)
    let rot = 1 + Rng.int rng (width - 1) in
    cur := bank;
    aux :=
      Array.init width (fun i ->
          if i = 0 then !cout else bank.((i + rot) mod width))
  done;
  Array.iteri
    (fun i v -> ignore (B.add_output b (Printf.sprintf "po%d" i) ~fanin:v))
    !cur;
  ignore (B.add_output b "po_c" ~fanin:!cout);
  B.freeze b
