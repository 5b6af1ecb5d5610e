module Netlist = Rar_netlist.Netlist
module Transform = Rar_netlist.Transform
module Difflp = Rar_flow.Difflp

type t = {
  stage : Stage.t;
  lp : Difflp.t;
  host : int;
  var_of : int array;      (* comb node -> variable *)
  p_sinks : (int * int) list;
  (* The graph edges are the first LP constraints, one each, in
     emission order; edge [i] has breadth [beta.(i)]. *)
  beta : float array;
}

let lp t = t.lp
let host t = t.host
let p_vars t = t.p_sinks

let m_endpoints_pruned = Rar_obs.Metrics.counter "endpoints_pruned"

let build ?edl_overhead ?(forbidden_edges = []) ?(bias_early = false) stage =
  Rar_obs.Trace.span "rgraph/build" @@ fun () ->
  let net = Stage.comb stage in
  let n = Netlist.node_count net in
  let groups = Stage.fanout_groups stage in
  (* Variable layout: host, comb nodes, mirrors, P(t). *)
  let host = 0 in
  let var_of = Array.init n (fun v -> v + 1) in
  let next = ref (n + 1) in
  let mirror_of = Array.make n (-1) in
  List.iter
    (fun (u, fanouts) ->
      if List.length fanouts > 1 then begin
        mirror_of.(u) <- !next;
        incr next
      end)
    groups;
  let targets =
    Array.to_list (Stage.sinks stage)
    |> List.filter_map (fun s ->
           match Stage.classify stage s with
           | Stage.Target { cut } -> Some (s, cut)
           | Stage.Never_ed | Stage.Always_ed -> None)
  in
  (* Endpoint-domination rule: a Target sink whose cut set g(t) equals
     an already-emitted p-var's cut set adds no new constraint — its
     P(t) vertex would sit at exactly max(-1, max over g(t) of r(g)) in
     any optimum, the same value as the canonical one — so it shares
     that variable (its EDL reward accumulates on the shared
     coefficient) and the LP keeps only the sparse endpoint frontier.
     Scanning targets in sink order keeps the canonical choice (first
     sink wins) deterministic. *)
  let p_sinks, canonical_p =
    match edl_overhead with
    | None -> ([], [])
    | Some _ ->
      let by_cut = Hashtbl.create 64 in
      let canon = ref [] in
      let pruned = ref 0 in
      let ps =
        List.map
          (fun (s, cut) ->
            match Hashtbl.find_opt by_cut cut with
            | Some v ->
              incr pruned;
              (s, v)
            | None ->
              let v = !next in
              incr next;
              Hashtbl.add by_cut cut v;
              canon := (v, cut) :: !canon;
              (s, v))
          targets
      in
      Rar_obs.Metrics.add m_endpoints_pruned !pruned;
      (ps, List.rev !canon)
  in
  (* One edge per source, one per single fanout, two per shared
     fanout (into the fanout and on into the mirror). *)
  let n_edges =
    List.fold_left
      (fun k (_, fanouts) ->
        match fanouts with [ _ ] -> k + 1 | _ -> k + (2 * List.length fanouts))
      (Array.length (Netlist.inputs net))
      groups
  in
  let lp = Difflp.create ~n:!next in
  let betas = Array.make n_edges 0. in
  (* An edge of the retiming graph: from variable [xu] to variable [xv],
     weight [w], breadth [beta > 0]. Its endpoints differ, so it is LP
     constraint number [i] exactly. *)
  let edge xu xv w beta =
    let i = Difflp.constraint_count lp in
    Difflp.add_constraint lp ~u:xu ~v:xv ~bound:w;
    Difflp.add_objective lp xv beta;
    Difflp.add_objective lp xu (-.beta);
    betas.(i) <- beta
  in
  (* Host edges carry the initial slave of every source. *)
  Array.iter
    (fun src -> edge host var_of.(src) 1 1.)
    (Netlist.inputs net);
  (* Fanout groups: single edge, or the mirror gadget. *)
  List.iter
    (fun (u, fanouts) ->
      match fanouts with
      | [] -> ()
      | [ (v, _) ] -> edge var_of.(u) var_of.(v) 0 1.
      | _ ->
        let k = float_of_int (List.length fanouts) in
        let m = mirror_of.(u) in
        List.iter
          (fun (v, _) ->
            edge var_of.(u) var_of.(v) 0 (1. /. k);
            edge var_of.(v) m 0 (1. /. k))
          fanouts)
    groups;
  assert (Difflp.constraint_count lp = n_edges);
  (* Region bounds as host arcs. *)
  let bound_var ?(lo = -1) ?(hi = 0) x =
    Difflp.add_constraint lp ~u:x ~v:host ~bound:hi;
    Difflp.add_constraint lp ~u:host ~v:x ~bound:(-lo)
  in
  for v = 0 to n - 1 do
    match Stage.region stage v with
    | Stage.Rm -> bound_var ~lo:(-1) ~hi:(-1) var_of.(v)
    | Stage.Rn -> bound_var ~lo:0 ~hi:0 var_of.(v)
    | Stage.Rr -> bound_var var_of.(v)
  done;
  List.iter (fun (u, _) -> if mirror_of.(u) >= 0 then bound_var mirror_of.(u)) groups;
  (* Resilient-aware machinery: P(t) vertices, E2 arcs, EDL reward.
     Bounds and cut constraints are emitted once per canonical P
     vertex; each sink sharing it still contributes its own reward
     term, which [Difflp.add_objective] accumulates on the shared
     coefficient. *)
  (match edl_overhead with
  | None -> ()
  | Some c ->
    List.iter
      (fun (pv, cut) ->
        bound_var pv;
        List.iter
          (fun g -> Difflp.add_constraint lp ~u:(var_of.(g)) ~v:pv ~bound:0)
          cut)
      canonical_p;
    List.iter
      (fun (_, pv) ->
        (* objective term -c * (r(h) - r(P)) = c*r(P) - c*r(h) *)
        Difflp.add_objective lp pv c;
        Difflp.add_objective lp host (-.c))
      p_sinks);
  (* No-latch constraints: w + r(v) - r(u) <= 0. A pair (src, src)
     forbids the host-edge position of a source. The stage's per-edge
     Constraint-(7) violations are always included. *)
  List.iter
    (fun (u, v) ->
      if u = v then
        (* host edge of source u: 1 + r(u) - r(h) <= 0 *)
        Difflp.add_constraint lp ~u:(var_of.(u)) ~v:host ~bound:(-1)
      else Difflp.add_constraint lp ~u:(var_of.(v)) ~v:(var_of.(u)) ~bound:0)
    (Stage.illegal_edges stage @ forbidden_edges);
  if bias_early then begin
    (* Commercial-baseline behaviour: movement is the primary
       objective (latches travel no further than the timing
       constraints force), the latch count only breaks ties. The
       weight dominates any achievable latch-count difference, which
       is bounded by the total breadth (< number of variables). *)
    let w = float_of_int (4 * !next) in
    for v = 0 to n - 1 do
      Difflp.add_objective lp var_of.(v) (-.w);
      Difflp.add_objective lp host w
    done
  end;
  { stage; lp; host; var_of; p_sinks; beta = betas }

let solve ?deadline ?on_fallback ?engine ?cache t =
  match
    Difflp.solve ?deadline ?on_fallback ?engine ?cache t.lp ~reference:t.host
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

let placements_of t r =
  let net = Stage.comb t.stage in
  let rv v = r.(t.var_of.(v)) in
  let pins_to u v =
    (* all pins of v driven by u *)
    let acc = ref [] in
    Array.iteri
      (fun pin w -> if w = u then acc := (v, pin) :: !acc)
      (Netlist.fanins net v);
    !acc
  in
  let placements = ref [] in
  for u = Netlist.node_count net - 1 downto 0 do
    match Netlist.kind net u with
    | Netlist.Output -> ()
    | Netlist.Input when rv u = 0 ->
      (* initial slave kept at the source, covering every fanout pin *)
      let latched =
        Array.to_list (Netlist.fanouts net u)
        |> List.sort_uniq compare
        |> List.concat_map (fun v -> pins_to u v)
      in
      if latched <> [] then
        placements := { Transform.after = u; latched } :: !placements
    | Netlist.Input | Netlist.Gate _ ->
      if rv u = -1 then begin
        let latched =
          Array.to_list (Netlist.fanouts net u)
          |> List.sort_uniq compare
          |> List.filter (fun v -> rv v = 0)
          |> List.concat_map (fun v -> pins_to u v)
        in
        if latched <> [] then
          placements := { Transform.after = u; latched } :: !placements
      end
    | Netlist.Seq _ -> ()
  done;
  !placements

let check_legal t placements =
  let net = Stage.comb t.stage in
  let n = Netlist.node_count net in
  let latched = Hashtbl.create 64 in
  List.iter
    (fun p ->
      List.iter (fun pin -> Hashtbl.replace latched pin ()) p.Transform.latched)
    placements;
  (* DP: min / max latch count along any source-to-node path. *)
  let lo = Array.make n max_int and hi = Array.make n min_int in
  let bad = ref None in
  Array.iter
    (fun v ->
      match Netlist.kind net v with
      | Netlist.Input ->
        lo.(v) <- 0;
        hi.(v) <- 0
      | Netlist.Gate _ | Netlist.Output ->
        Array.iteri
          (fun pin u ->
            if lo.(u) <> max_int then begin
              let step = if Hashtbl.mem latched (v, pin) then 1 else 0 in
              if lo.(u) + step < lo.(v) then lo.(v) <- lo.(u) + step;
              if hi.(u) + step > hi.(v) then hi.(v) <- hi.(u) + step
            end)
          (Netlist.fanins net v);
        if
          Netlist.kind net v = Netlist.Output
          && !bad = None
          && not (lo.(v) = 1 && hi.(v) = 1)
        then bad := Some v
      | Netlist.Seq _ -> ())
    (Netlist.topo_comb net);
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
