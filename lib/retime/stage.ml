module Netlist = Rar_netlist.Netlist
module Transform = Rar_netlist.Transform
module Liberty = Rar_liberty.Liberty
module Sta = Rar_sta.Sta
module Clocking = Rar_sta.Clocking

let src = Logs.Src.create "rar.retime.stage" ~doc:"Retiming stage analysis"

module Log = (val Logs.src_log src : Logs.LOG)

type region = Rm | Rn | Rr

type sink_class =
  | Never_ed
  | Always_ed
  | Target of { cut : int list }

(* Result of classifying one sink. Its edges are packed as flat arrays
   of fanin pin positions (position [p] is the edge
   [(fanin p, owner p)]), ascending — node id, then pin order; the
   accessors rebuild the public lists. Results are returned (not pushed
   into shared tables) so classification can run on the domain pool;
   {!make} merges them sequentially after the join. *)
type classified = {
  cls : sink_class;
  ill : int array;             (* per-edge Constraint (7) violations *)
  win : int array;             (* window edges (Target sinks only) *)
  empty_cut : bool;            (* Always_ed via an empty g(t): warn *)
}

type t = {
  cc : Transform.comb_circuit;
  source : Netlist.t option; (* two-phase netlist the cc came from *)
  lib : Liberty.t;
  clocking : Clocking.t;
  sta : Sta.t;
  annot : float array option; (* ECO delay annotations baked into sta *)
  regions : region array;
  initial_arr : Liberty.arc array;   (* un-retimed arrivals *)
  illegal : (int * int) list;        (* edges that can never hold a slave *)
  per_sink : (int * classified) array;
    (* every sink's classification, in sink order — read by the
       accessors below and reused by {!patch} for sinks outside an
       edit's affected cone *)
  slot : int array; (* node id -> index into [per_sink], -1 off sinks *)
  owner : int array; (* fanin pin position -> the node it belongs to *)
}

let cc t = t.cc
let source t = t.source
let annot t = t.annot
let comb t = t.cc.Transform.comb
let sta t = t.sta
let lib t = t.lib
let clocking t = t.clocking
let model t = Sta.model t.sta
let region t v = t.regions.(v)
let sinks t = Netlist.outputs (comb t)
let slave_latch t = Liberty.latch t.lib

(* The classification record of sink [s]; [fn] names the accessor in
   the [Invalid_argument] a non-sink raises. *)
let entry fn t s =
  if s < 0 || s >= Array.length t.slot || t.slot.(s) < 0 then
    invalid_arg (fn ^ ": not a sink node")
  else snd t.per_sink.(t.slot.(s))

let classify t s = (entry "Stage.classify" t s).cls

let illegal_edges t = t.illegal

let db_of_sink t s = Sta.backward_packed t.sta ~sink:s

let a_value t ~db ~u ~v =
  Sta.arrival_with_slave_after t.sta ~clocking:t.clocking
    ~latch:(slave_latch t) ~u ~v ~db

let initial_arrival t s = Liberty.arc_max t.initial_arr.(s)

let near_critical_initial t =
  let period = Clocking.period t.clocking in
  Array.fold_right
    (fun s acc -> if initial_arrival t s > period then s :: acc else acc)
    (sinks t) []

(* Packed pin positions as [(u, v)] edges, in descending position
   order: the order {!window_edges} returns. *)
let edges_desc ~owner net pins =
  let fin = (Netlist.compact net).Netlist.Compact.fanin in
  Array.fold_left (fun acc p -> (fin.(p), owner.(p)) :: acc) [] pins

let window_edges t s =
  let r = entry "Stage.window_edges" t s in
  match r.cls with
  | Target _ -> edges_desc ~owner:t.owner (comb t) r.win
  | Never_ed -> []
  | Always_ed -> invalid_arg "Stage.window_edges: always-error-detecting sink"

let max_path t s =
  ignore (entry "Stage.max_path" t s : classified);
  Sta.arrival_at_sink t.sta s

(* A fanout row lists each fanout once per connected pin, ascending
   ({!Netlist.fanouts}), so parallel pins are adjacent and one
   run-length pass groups them. The result stays a list: a large array
   of young groups would sit in the major heap and promote every group
   at the next minor GC. *)
let fanout_groups t =
  let net = comb t in
  let acc = ref [] in
  for u = Netlist.node_count net - 1 downto 0 do
    match Netlist.kind net u with
    | Netlist.Output -> ()
    | Netlist.Input | Netlist.Gate _ | Netlist.Seq _ ->
      let fo = Netlist.fanouts net u in
      if Array.length fo > 0 then begin
        (* runs right to left, so the list comes out ascending *)
        let groups = ref [] and i = ref (Array.length fo - 1) in
        while !i >= 0 do
          let v = fo.(!i) and j = ref !i in
          while !j > 0 && fo.(!j - 1) = v do
            decr j
          done;
          groups := (v, !i - !j + 1) :: !groups;
          i := !j - 1
        done;
        acc := (u, !groups) :: !acc
      end
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let eps = 1e-9

let compute_regions ~sta_an ~lib ~clocking net =
  let slave = Liberty.latch lib in
  let close_limit = Clocking.slave_close clocking -. slave.Liberty.setup in
  let budget = Clocking.backward_budget clocking in
  let back_all = Sta.backward_all sta_an in
  let n = Netlist.node_count net in
  let regions = Array.make n Rr in
  let conflict = ref None in
  for v = 0 to n - 1 do
    let must_move = back_all.(v) > budget +. eps in
    let cannot_move =
      (match Netlist.kind net v with
      | Netlist.Output -> true
      | Netlist.Input | Netlist.Gate _ | Netlist.Seq _ -> false)
      || Sta.df sta_an v > close_limit +. eps
    in
    if must_move && cannot_move then
      conflict := Some (Netlist.node_name net v)
    else if must_move then regions.(v) <- Rm
    else if cannot_move then regions.(v) <- Rn
  done;
  match !conflict with
  | Some name -> Error (Error.Illegal_stage { node = name })
  | None -> Ok regions

(* Per-sink classification state, owned by one chunk of one {!make} or
   {!patch} call (see [Pool.map_adaptive_with]) and reused for every
   sink of that chunk, so a sink costs O(|cone| + cone pins) rather
   than O(n). Every entry is written before it is read for each sink,
   so nothing is cleared between sinks. *)
type scratch = {
  cone : Sta.cone;
  flags : Bytes.t;  (* per node: the [f_*] bits below *)
  cand : int array; (* nodes feeding the edge and cut lists *)
  ill_buf : int array; (* pin positions, then copied out per sink *)
  win_buf : int array;
}

let new_scratch sta_an =
  let cv = Netlist.compact (Sta.netlist sta_an) in
  let n = Netlist.Compact.n cv in
  let n_pins = Int.max 1 (Netlist.Compact.fanin_lo cv n) in
  { cone = Sta.cone_scratch sta_an; flags = Bytes.create n;
    cand = Array.make n 0; ill_buf = Array.make n_pins 0;
    win_buf = Array.make n_pins 0 }

(* Node flags of the sink being classified. *)
let f_bad = 1      (* some source-to-node path passes no good position *)
let f_late_in = 2  (* some fanin pin's A exceeds the period *)
let f_good_out = 4 (* some cone out-edge is a good position *)
let f_late_out = 8 (* some cone out-edge's A exceeds the period *)
let f_ill_in = 16  (* some fanin pin's A exceeds the max delay *)

(* Ascending in-place heapsort of [a.(0 .. len-1)], monomorphic on
   ints (the polymorphic [Array.sort] pays a closure call and a
   generic compare per comparison). *)
let sort_prefix (a : int array) len =
  let rec sift root hi =
    let child = (2 * root) + 1 in
    if child < hi then begin
      let child =
        if child + 1 < hi && a.(child + 1) > a.(child) then child + 1
        else child
      in
      if a.(child) > a.(root) then begin
        let x = a.(root) in
        a.(root) <- a.(child);
        a.(child) <- x;
        sift child hi
      end
    end
  in
  for i = (len / 2) - 1 downto 0 do
    sift i len
  done;
  for hi = len - 1 downto 1 do
    let x = a.(0) in
    a.(0) <- a.(hi);
    a.(hi) <- x;
    sift 0 hi
  done

let m_cone_nodes = Rar_obs.Metrics.counter "stage_cone_nodes"
let m_sinks_pruned = Rar_obs.Metrics.counter "stage_sinks_pruned"

(* A sink decided by the prune bound: no slave position can be late. *)
let pruned = { cls = Never_ed; ill = [||]; win = [||]; empty_cut = false }

let prefix buf len = if len = 0 then [||] else Array.sub buf 0 len

(* Classification of one sink by its cone (paper §IV-A). While
   scanning every latch position in the cone we also record the
   positions that violate the max-delay bound for this sink (the
   per-edge form of Constraint 7). Reads only the shared read-only
   [sta_an] (whose [backward_all] cache {!make} forces before fan-out)
   and [arcs], and writes only [sc], so sinks classify in parallel, one
   scratch per chunk. [launchable u]: a slave just after [u] meets its
   own setup against the closing edge (Constraint 6). *)
let classify_cone ~sta_an ~clocking ~arcs ~launchable sc s =
  let period = Clocking.period clocking in
  let limit = Clocking.max_delay clocking in
  let cv = Netlist.compact (Sta.netlist sta_an) in
  let c = sc.cone in
  Sta.load_cone sta_an c ~sink:s;
  let size = Sta.cone_size c in
  Rar_obs.Metrics.add m_cone_nodes size;
  let nodes = Sta.cone_nodes c in
  let a = Sta.cone_slave_arrivals sta_an c arcs in
  let flags = sc.flags and cand = sc.cand in
  let tags = cv.Netlist.Compact.tags and head = cv.Netlist.Compact.fanin_head
  and fin = cv.Netlist.Compact.fanin in
  let flag v = Char.code (Bytes.get flags v) in
  let set_flag v f = Bytes.set flags v (Char.unsafe_chr f) in
  (* One forward pass over the cone ([nodes] reversed is a topological
     order), reading each pin's A once. A position (u,v) is legal when
     [launchable u] and the capture meets max delay (per-edge
     Constraint 7); it is *good* when additionally the capture stays
     out of the resiliency window. The pass takes the worst legal A,
     runs the path DP — [f_bad]: some path to the node passed no good
     position, so the sink can be made non-error-detecting iff it is
     not bad — and records the g(t) conditions as node flags. A node's
     flags are initialised when the pass reaches it, before any of its
     fanouts (later in the order) set out-edge bits on it. Nodes with a
     late fanin pin are collected as candidates: they hold every window
     and illegal edge (max delay >= period) and every gate of g(t). *)
  let a_max_legal = ref neg_infinity in
  let n_cand = ref 0 and n_ill_nodes = ref 0 in
  for i = size - 1 downto 0 do
    let v = nodes.(i) in
    if tags.(v) = Netlist.Compact.tag_input then set_flag v f_bad
    else begin
      let fv = ref 0 in
      for p = head.(v) to head.(v + 1) - 1 do
        let u = fin.(p) in
        let ap = a.(p) in
        let late = ap > period +. eps in
        let good =
          launchable.(u) && ap <= limit +. eps
          && begin
            if ap > !a_max_legal then a_max_legal := ap;
            not late
          end
        in
        let fu = flag u in
        if good then set_flag u (fu lor f_good_out)
        else if fu land f_bad <> 0 then fv := !fv lor f_bad;
        if late then begin
          set_flag u (flag u lor f_late_out);
          fv := !fv lor f_late_in;
          if ap > limit +. eps then fv := !fv lor f_ill_in
        end
      done;
      set_flag v !fv;
      if !fv land f_late_in <> 0 then begin
        cand.(!n_cand) <- v;
        incr n_cand;
        if !fv land f_ill_in <> 0 then incr n_ill_nodes
      end
    end
  done;
  let always = flag s land f_bad <> 0 in
  let never = (not always) && !a_max_legal <= period +. eps in
  let target = not (always || never) in
  if target then
    (* g(t) per Eq. 8-9, over legal positions: a node with a good
       out-edge and a late position before it. A source has no fanin
       pins; condition (9) uses its host-edge position, i.e. its own
       cone out-edges. *)
    for i = 0 to size - 1 do
      let v = nodes.(i) in
      if
        tags.(v) = Netlist.Compact.tag_input
        && flag v land (f_good_out lor f_late_out) = f_good_out lor f_late_out
      then begin
        cand.(!n_cand) <- v;
        incr n_cand
      end
    done
  else begin
    (* A Never_ed or Always_ed sink keeps only its illegal edges: narrow
       the candidates to the nodes holding one (usually none, so
       nothing is sorted). *)
    let k = ref 0 in
    if !n_ill_nodes > 0 then
      for j = 0 to !n_cand - 1 do
        let v = cand.(j) in
        if flag v land f_ill_in <> 0 then begin
          cand.(!k) <- v;
          incr k
        end
      done;
    n_cand := !k
  end;
  (* The arrays follow ascending node id, then pin order. *)
  sort_prefix cand !n_cand;
  let ill_buf = sc.ill_buf and win_buf = sc.win_buf in
  let n_ill = ref 0 and n_win = ref 0 and cut = ref [] in
  for j = 0 to !n_cand - 1 do
    let v = cand.(j) in
    let tg = tags.(v) in
    if tg = Netlist.Compact.tag_input then cut := v :: !cut
    else begin
      for p = head.(v) to head.(v + 1) - 1 do
        if a.(p) > limit +. eps then begin
          ill_buf.(!n_ill) <- p;
          incr n_ill
        end
        else if a.(p) > period +. eps then begin
          win_buf.(!n_win) <- p;
          incr n_win
        end
      done;
      if
        target && tg = Netlist.Compact.tag_gate
        && flag v land f_good_out <> 0
      then cut := v :: !cut
    end
  done;
  let ill = prefix ill_buf !n_ill in
  let none = { cls = Never_ed; ill; win = [||]; empty_cut = false } in
  if always then { none with cls = Always_ed }
  else if never then none
  else if !cut = [] then { none with cls = Always_ed; empty_cut = true }
  else
    { none with cls = Target { cut = List.rev !cut };
      win = prefix win_buf !n_win }

(* [never_late s]: the prune bound proves every slave position of [s]
   early, so [s] is Never_ed with no edges and its cone is never
   loaded. *)
let classify_sink ~sta_an ~clocking ~arcs ~launchable ~never_late sc s =
  if never_late s then begin
    Rar_obs.Metrics.incr m_sinks_pruned;
    pruned
  end
  else classify_cone ~sta_an ~clocking ~arcs ~launchable sc s

(* Per node: a slave just after it meets its setup against the closing
   edge (Constraint 6) — shared by every sink's classification. *)
let launchable_nodes ~sta_an ~clocking ~latch =
  let close_limit = Clocking.slave_close clocking -. latch.Liberty.setup in
  Array.init
    (Netlist.node_count (Sta.netlist sta_an))
    (fun u -> Sta.df sta_an u <= close_limit +. eps)

(* The prune test (DESIGN.md §13): a slave anywhere delays a sink by at
   most [d] ({!Sta.slave_delay_bound}), so a sink with
   [arrival + d <= period] has no late position — no window or illegal
   edge, and its worst legal A is inside the period. With every source
   launchable, each source's out-edges are then good positions, no
   path is bad, and the sink is Never_ed: exactly what its cone scan
   would return. *)
let never_late_test ~sta_an ~clocking ~latch ~launchable =
  let period = Clocking.period clocking in
  match Sta.slave_delay_bound sta_an ~clocking ~latch with
  | Some d
    when Array.for_all
           (fun u -> launchable.(u))
           (Netlist.inputs (Sta.netlist sta_an)) ->
    fun s -> Sta.arrival_at_sink sta_an s +. d <= period
  | Some _ | None -> fun _ -> false

(* Classify [sinks] over the domain pool, one scratch per chunk. *)
let classify_sinks ~sta_an ~clocking ~latch sinks =
  Rar_obs.Trace.span "stage/classify" @@ fun () ->
  let launchable = launchable_nodes ~sta_an ~clocking ~latch in
  let never_late = never_late_test ~sta_an ~clocking ~latch ~launchable in
  let arcs = Sta.slave_arcs sta_an ~clocking ~latch in
  Rar_util.Pool.map_adaptive_with
    ~init:(fun () -> new_scratch sta_an)
    sinks
    (fun sc s ->
      (s, classify_sink ~sta_an ~clocking ~arcs ~launchable ~never_late sc s))

(* Shared back half of {!make} and {!patch}: reject untimeable sinks,
   index the per-sink results and merge their illegal edges
   sequentially in sink order (so the edge list is identical for every
   pool size — and identical between a cold make and a patch), promote
   illegal-edge sources and compute the initial arrivals. *)
let finish ~cc ~source ~lib ~clocking ~sta_an ~annot ~latch ~regions
    ~classified =
  let net = cc.Transform.comb in
  let limit = Clocking.max_delay clocking in
  let too_long =
    Array.fold_left
      (fun acc s ->
        match acc with
        | Some _ -> acc
        | None ->
          if Sta.arrival_at_sink sta_an s > limit +. eps then Some s else None)
      None (Netlist.outputs net)
  in
  match too_long with
  | Some s ->
    Error (Error.Untimeable_sink { sink = Netlist.node_name net s; limit })
  | None ->
    let cv = Netlist.compact net in
    let fin = cv.Netlist.Compact.fanin and head = cv.Netlist.Compact.fanin_head in
    let owner = Array.make (Int.max 1 head.(Netlist.Compact.n cv)) 0 in
    for v = 0 to Netlist.Compact.n cv - 1 do
      Array.fill owner head.(v) (head.(v + 1) - head.(v)) v
    done;
    let illegal_tbl = Hashtbl.create 64 in
    let slot = Array.make (Netlist.node_count net) (-1) in
    Array.iteri
      (fun i (s, r) ->
        slot.(s) <- i;
        Array.iter
          (fun p -> Hashtbl.replace illegal_tbl (fin.(p), owner.(p)) ())
          r.ill;
        if r.empty_cut then
          Log.warn (fun m ->
              m "sink %s: retiming-dependent but empty g(t); treating as \
                 always error-detecting"
                (Netlist.node_name net s)))
      classified;
    let illegal = Hashtbl.fold (fun e () acc -> e :: acc) illegal_tbl [] in
    (* A source whose shared initial position covers an illegal edge
       must clear its host latch: promote to V_m. *)
    List.iter
      (fun (u, _) ->
        if Netlist.kind net u = Netlist.Input && regions.(u) = Rr then
          regions.(u) <- Rm)
      illegal;
    let initial_arr =
      Sta.forward_with_latches sta_an ~clocking ~latch
        ~latched:(fun ~v ~pin ->
          let u = (Netlist.fanins net v).(pin) in
          Netlist.kind net u = Netlist.Input)
    in
    Ok { cc; source; lib; clocking; sta = sta_an; annot; regions;
         initial_arr; illegal; per_sink = classified; slot; owner }

let make ?(model = Sta.Path_based) ?source ?annot ~lib ~clocking cc =
  let net = cc.Transform.comb in
  let sta_an = Sta.analyse ?annot lib model net in
  let latch = Liberty.latch lib in
  match compute_regions ~sta_an ~lib ~clocking net with
  | Error _ as e -> e
  | Ok regions ->
    (* Per-sink classification is independent (each sink scans its
       own fan-in cone against the shared read-only STA), so it fans
       out across the domain pool. [backward_all]'s memo is already
       forced by [compute_regions] above; force it regardless so the
       shared [Sta.t] stays read-only inside the workers. *)
    ignore (Sta.backward_all sta_an : float array);
    (* Adaptive chunked dispatch: a sink classifies in O(|cone|) on a
       reused scratch — tens of microseconds on the 24x64 pipeline —
       so anything smaller than a few hundred sinks is cheaper to scan
       in place than to ship through the pool (waking a domain costs
       milliseconds on a contended host). ISCAS-scale circuits
       (<= ~250 sinks) therefore stay on the sequential path; larger
       endpoint sets are cut into a few chunks per worker, each with
       its own scratch, so mid-size
       designs fan out instead of tripping the pool's task-ratio
       fallback the old fixed 256-sink grain hit. *)
    let classified =
      classify_sinks ~sta_an ~clocking ~latch (Netlist.outputs net)
    in
    finish ~cc ~source ~lib ~clocking ~sta_an ~annot ~latch ~regions
      ~classified

let patch t (applied : Transform.Edit.applied) =
  Rar_obs.Trace.span "stage/patch" @@ fun () ->
  let net = applied.Transform.Edit.net in
  let annot = Some applied.Transform.Edit.annot in
  let cc = { t.cc with Transform.comb = net } in
  let lib = t.lib and clocking = t.clocking in
  let latch = Liberty.latch lib in
  let sta_an, changed =
    Sta.patch t.sta ~net ?annot
      ~dirty_arcs:applied.Transform.Edit.dirty_arcs
      ~seeds:applied.Transform.Edit.seeds ()
  in
  match compute_regions ~sta_an ~lib ~clocking net with
  | Error _ as e -> e
  | Ok regions ->
    (* Affected sinks: everything forward-reachable (over the edited
       netlist) from a node whose arcs, fanins or arrival changed.
       Every other sink's fan-in cone has identical structure and
       timing, so its cached classification is still exact. *)
    let cv = Netlist.compact net in
    let n = Netlist.Compact.n cv in
    let reach = Array.copy changed in
    let topo = Netlist.Compact.topo cv in
    for i = 0 to n - 1 do
      let v = topo.(i) in
      if reach.(v) then begin
        let hi = Netlist.Compact.fanout_hi cv v in
        for p = Netlist.Compact.fanout_lo cv v to hi - 1 do
          reach.(Netlist.Compact.fanout cv p) <- true
        done
      end
    done;
    let affected =
      Array.of_list
        (Array.fold_right
           (fun (s, _) acc -> if reach.(s) then s :: acc else acc)
           t.per_sink [])
    in
    ignore (Sta.backward_all sta_an : float array);
    let classified = Array.copy t.per_sink in
    Array.iter
      (fun (s, r) -> classified.(t.slot.(s)) <- (s, r))
      (classify_sinks ~sta_an ~clocking ~latch affected);
    finish ~cc ~source:t.source ~lib ~clocking ~sta_an ~annot ~latch
      ~regions ~classified

let pp_summary ppf t =
  let net = comb t in
  let count pred = Array.fold_left (fun a v -> if pred v then a + 1 else a) 0 in
  let n = Netlist.node_count net in
  let ids = Array.init n (fun i -> i) in
  let never, always, target =
    Array.fold_left
      (fun (nv, aw, tg) (_, r) ->
        match r.cls with
        | Never_ed -> (nv + 1, aw, tg)
        | Always_ed -> (nv, aw + 1, tg)
        | Target _ -> (nv, aw, tg + 1))
      (0, 0, 0) t.per_sink
  in
  Format.fprintf ppf
    "stage %s: |Vm|=%d |Vn|=%d |Vr|=%d sinks: %d never-ed, %d always-ed, %d \
     targets"
    (Netlist.name net)
    (count (fun v -> t.regions.(v) = Rm) ids)
    (count (fun v -> t.regions.(v) = Rn) ids)
    (count (fun v -> t.regions.(v) = Rr) ids)
    never always target
