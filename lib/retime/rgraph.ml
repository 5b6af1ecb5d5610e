module Netlist = Rar_netlist.Netlist
module Compact = Rar_netlist.Netlist.Compact
module Transform = Rar_netlist.Transform
module Difflp = Rar_flow.Difflp

(* Variable layout: the host, comb node [v] at [v + 1], the mirrors in
   node order, then the canonical P(t) vertices in sink order. *)
let host = 0

type t = {
  stage : Stage.t;
  lp : Difflp.t;
  p_sinks : (int * int) list;
  (* The graph edges are the first LP constraints, one each, in
     emission order; edge [i] has breadth [beta.(i)]. *)
  beta : float array;
}

let lp t = t.lp
let p_vars t = t.p_sinks

let m_endpoints_pruned = Rar_obs.Metrics.counter "endpoints_pruned"

(* Endpoint-domination rule: a Target sink whose cut set g(t) equals an
   earlier target's adds no new constraint — its P(t) vertex would sit
   at exactly max(-1, max over g(t) of r(g)) in any optimum, the same
   value as the canonical one — so it shares that vertex (its EDL
   reward accumulates on the shared coefficient) and the LP keeps only
   the sparse endpoint frontier. Returns every target as (sink,
   canonical index), in sink order, and the canonical cut sets; the
   first sink of a cut set wins, so the choice is deterministic. *)
let endpoint_frontier stage =
  let by_cut = Hashtbl.create 64 in
  let canon = ref [] and pruned = ref 0 in
  let slots =
    Array.fold_right
      (fun s acc ->
        match Stage.classify stage s with
        | Stage.Never_ed | Stage.Always_ed -> acc
        | Stage.Target { cut } -> (s, cut) :: acc)
      (Stage.sinks stage) []
    |> List.map (fun (s, cut) ->
           match Hashtbl.find_opt by_cut cut with
           | Some j ->
             incr pruned;
             (s, j)
           | None ->
             let j = Hashtbl.length by_cut in
             Hashtbl.add by_cut cut j;
             canon := cut :: !canon;
             (s, j))
  in
  Rar_obs.Metrics.add m_endpoints_pruned !pruned;
  (slots, List.rev !canon)

let build ?edl_overhead ?forbidden_pins ?(bias_early = false) stage =
  Rar_obs.Trace.span "rgraph/build" @@ fun () ->
  let net = Stage.comb stage in
  let cv = Netlist.compact net in
  let n = Compact.n cv in
  let tags = cv.Compact.tags in
  let fo_head = cv.Compact.fanout_head and fo = cv.Compact.fanout in
  let slots, canonical =
    match edl_overhead with
    | None -> ([], [])
    | Some _ -> endpoint_frontier stage
  in
  let fi_head = cv.Compact.fanin_head and fin = cv.Compact.fanin in
  (* The no-latch positions: the pins, ascending — the stage's illegal
     (per-edge Constraint 7) pins and every forbidden pin — and the
     sources with a forbidden out-pin, in source order. Without
     forbidden pins only the illegal pins are read. *)
  let no_latch_pins, no_latch_hosts =
    match forbidden_pins with
    | None -> (Stage.illegal_pins stage, Seq.empty)
    | Some f when Array.length f = fi_head.(n) ->
      let marked = Array.copy f and drives = Array.make n false in
      Array.iter (fun p -> marked.(p) <- true) (Stage.illegal_pins stage);
      Array.iteri (fun p b -> if b then drives.(fin.(p)) <- true) f;
      ( Array.of_seq
          (Seq.filter (Array.get marked) (Seq.init fi_head.(n) Fun.id)),
        Seq.filter (Array.get drives) (Array.to_seq (Netlist.inputs net)) )
    | Some _ -> invalid_arg "Rgraph.build: forbidden pins of another layout"
  in
  (* The node whose fanin row holds pin [p], by bisection. *)
  let rec node_of_pin lo hi p =
    if hi - lo <= 1 then lo
    else
      let mid = (lo + hi) / 2 in
      if fi_head.(mid) <= p then node_of_pin mid hi p
      else node_of_pin lo mid p
  in
  (* The one walk that emits the LP: every constraint in order, and
     every objective term in the order its coefficient sums it. Into
     [None] it only counts, so the walk into [Some lp] fills a store,
     an objective [obj] and a breadth array [beta] sized exactly.
     Returns the constraints, the graph edges and the mirrors. *)
  let walk lp obj beta =
    let fill = Option.is_some lp in
    let m = ref 0 and e = ref 0 and mirrors = ref 0 in
    let con u v bound =
      (match lp with
      | Some lp -> Difflp.add_constraint lp ~u ~v ~bound
      | None -> ());
      incr m
    in
    (* Graph edge [xu -> xv] of weight [w] and breadth [1/k]: LP
       constraint number [!e] (its endpoints differ, so it is kept),
       and the breadth on both endpoints' coefficients. *)
    let edge xu xv w k =
      if fill then begin
        let b = 1. /. float_of_int k in
        obj.(xv) <- obj.(xv) +. b;
        obj.(xu) <- obj.(xu) +. -.b;
        beta.(!e) <- b
      end;
      con xu xv w;
      incr e
    in
    (* Region bound [lo <= r(x) <= hi] as two host arcs. *)
    let bound x lo hi =
      con x host hi;
      con host x (-lo)
    in
    (* Host edges carry the initial slave of every source. *)
    Array.iter (fun src -> edge host (src + 1) 1 1) (Netlist.inputs net);
    (* Fanout rows: one edge to a lone fanout, or the mirror gadget.
       A row is ascending with parallel pins adjacent, so a fanout is
       distinct where it differs from its left neighbour. *)
    for u = 0 to n - 1 do
      let lo = fo_head.(u) and hi = fo_head.(u + 1) in
      if hi > lo && tags.(u) <> Compact.tag_output then begin
        let k = ref 1 in
        for i = lo + 1 to hi - 1 do
          if fo.(i) <> fo.(i - 1) then incr k
        done;
        if !k = 1 then edge (u + 1) (fo.(lo) + 1) 0 1
        else begin
          let mv = n + 1 + !mirrors in
          incr mirrors;
          for i = lo to hi - 1 do
            if i = lo || fo.(i) <> fo.(i - 1) then begin
              edge (u + 1) (fo.(i) + 1) 0 !k;
              edge (fo.(i) + 1) mv 0 !k
            end
          done
        end
      end
    done;
    for v = 0 to n - 1 do
      match Stage.region stage v with
      | Stage.Rm -> bound (v + 1) (-1) (-1)
      | Stage.Rn -> bound (v + 1) 0 0
      | Stage.Rr -> bound (v + 1) (-1) 0
    done;
    for x = n + 1 to n + !mirrors do
      bound x (-1) 0
    done;
    (* Resilient-aware machinery: P(t) bounds and E2 arcs once per
       canonical vertex, then the EDL reward of every target sink,
       which accumulates on a shared vertex's coefficient. *)
    let p_base = n + 1 + !mirrors in
    (match edl_overhead with
    | None -> ()
    | Some c ->
      List.iteri
        (fun j cut ->
          let pv = p_base + j in
          bound pv (-1) 0;
          List.iter (fun g -> con (g + 1) pv 0) cut)
        canonical;
      if fill then
        List.iter
          (fun (_, j) ->
            (* objective term -c * (r(h) - r(P)) = c*r(P) - c*r(h) *)
            obj.(p_base + j) <- obj.(p_base + j) +. c;
            obj.(host) <- obj.(host) +. -.c)
          slots);
    (* No-latch constraints, w + r(v) - r(u) <= 0, each position once:
       the edges in fanin CSR order, then the host edges. *)
    Array.iteri
      (fun i p ->
        let u = fin.(p) and v = node_of_pin 0 n p in
        (* Parallel pins of one driver share their marks: the first in
           the row stands for the edge. *)
        let rec first j =
          j < 0
          || no_latch_pins.(j) < fi_head.(v)
          || (fin.(no_latch_pins.(j)) <> u && first (j - 1))
        in
        if first (i - 1) then con (v + 1) (u + 1) 0)
      no_latch_pins;
    Seq.iter (fun u -> con (u + 1) host (-1)) no_latch_hosts;
    if bias_early && fill then begin
      (* Commercial-baseline behaviour: movement is the primary
         objective (latches travel no further than the timing
         constraints force), the latch count only breaks ties. The
         weight dominates any achievable latch-count difference, which
         is bounded by the total breadth (< number of variables). *)
      let w = float_of_int (4 * (p_base + List.length canonical)) in
      for v = 1 to n do
        obj.(v) <- obj.(v) +. -.w;
        obj.(host) <- obj.(host) +. w
      done
    end;
    (!m, !e, !mirrors)
  in
  let m, edges, mirrors = walk None [||] [||] in
  let vars = n + 1 + mirrors + List.length canonical in
  let lp = Difflp.create ~n:vars in
  Difflp.reserve lp m;
  let obj = Array.make vars 0. and beta = Array.make edges 0. in
  ignore (walk (Some lp) obj beta : int * int * int);
  assert (Difflp.constraint_count lp = m);
  Difflp.add_objectives lp obj;
  let p_base = n + 1 + mirrors in
  let p_sinks = List.map (fun (s, j) -> (s, p_base + j)) slots in
  { stage; lp; p_sinks; beta }

let solve ?deadline ?on_fallback ?engine ?cache t =
  match
    Difflp.solve ?deadline ?on_fallback ?engine ?cache t.lp ~reference:host
  with
  | Ok r -> Ok r
  | Error detail -> Error (Error.Infeasible_lp { detail })

(* Summed last edge first: float addition does not reassociate, and
   this is the order every published [lp_latches] value was summed in. *)
let modelled_latch_count t r =
  let acc = ref 0. in
  for i = Array.length t.beta - 1 downto 0 do
    acc := !acc +. (t.beta.(i) *. float_of_int (Difflp.slack t.lp r i))
  done;
  !acc

let placements_on stage r =
  Rar_obs.Trace.span "rgraph/decode" @@ fun () ->
  let net = Stage.comb stage in
  let rv v = r.(v + 1) in
  let placements = ref [] in
  let add = function Some p -> placements := p :: !placements | None -> () in
  for u = Netlist.node_count net - 1 downto 0 do
    match Netlist.kind net u with
    | Netlist.Output | Netlist.Seq _ -> ()
    | Netlist.Input when rv u = 0 ->
      (* initial slave kept at the source, covering every fanout pin *)
      add (Transform.slave_after net u ~keep:(fun _ -> true))
    | Netlist.Input | Netlist.Gate _ ->
      if rv u = -1 then
        add (Transform.slave_after net u ~keep:(fun v -> rv v = 0))
  done;
  !placements

let placements_of t r = placements_on t.stage r

let check_legal_on stage placements =
  Rar_obs.Trace.span "rgraph/legal" @@ fun () ->
  let net = Stage.comb stage in
  match Transform.pin_index net placements with
  | exception Invalid_argument detail ->
    Error (Error.Illegal_placement { detail })
  | index ->
    let cv = Netlist.compact net in
    let fin = cv.Netlist.Compact.fanin in
    let head = cv.Netlist.Compact.fanin_head in
    let tags = cv.Netlist.Compact.tags in
    let n = Netlist.Compact.n cv in
    (* DP: min / max latch count along any source-to-node path. *)
    let lo = Array.make n max_int and hi = Array.make n min_int in
    let bad = ref None in
    Array.iter
      (fun v ->
        let tg = tags.(v) in
        if tg = Netlist.Compact.tag_input then begin
          lo.(v) <- 0;
          hi.(v) <- 0
        end
        else if tg <> Netlist.Compact.tag_seq then begin
          for p = head.(v) to head.(v + 1) - 1 do
            let u = fin.(p) in
            if lo.(u) <> max_int then begin
              let step = if index.(p) >= 0 then 1 else 0 in
              if lo.(u) + step < lo.(v) then lo.(v) <- lo.(u) + step;
              if hi.(u) + step > hi.(v) then hi.(v) <- hi.(u) + step
            end
          done;
          if
            tg = Netlist.Compact.tag_output
            && !bad = None
            && not (lo.(v) = 1 && hi.(v) = 1)
          then bad := Some v
        end)
      (Netlist.Compact.topo cv);
    match !bad with
    | None -> Ok ()
    | Some v ->
      Error
        (Error.Illegal_placement
           {
             detail =
               Printf.sprintf
                 "sink %S sees between %d and %d slaves on its paths"
                 (Netlist.node_name net v)
                 (if lo.(v) = max_int then -1 else lo.(v))
                 (if hi.(v) = min_int then -1 else hi.(v));
           })

let check_legal t placements = check_legal_on t.stage placements
