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

(* Result of classifying one sink. Its slave positions are flat arrays
   of fanin pin positions, ascending — node id, then pin order.
   Results are returned (not pushed into shared tables) so
   classification can run on the domain pool; {!make} merges them
   sequentially after the join. *)
type classified = {
  cls : sink_class;
  ill : int array;             (* per-edge Constraint (7) violations *)
  win : int array;             (* window pins (Target sinks only) *)
  empty_cut : bool;            (* Always_ed via an empty g(t): warn *)
}

(* Per-batch classification state, owned by one pool participant of
   one {!make} or {!patch} call at a time (see
   [Pool.map_adaptive_with]) and reused for every batch that
   participant classifies, so a batch costs O(lanes * (|union| + union
   pins)) rather than O(n); a patched stage keeps the first
   participant's for its own next patch ([carry]). Every entry is
   written before it is read for each batch, so nothing is cleared
   between batches or calls. *)
type scratch = {
  batch : Sta.batch;
  flags : int array;     (* per node: the lane masks of the fields below *)
  cand : int array;      (* nodes feeding the edge and cut lists *)
  sort_tmp : int array;  (* the radix sort's second buffer *)
  pin_lanes : int array; (* per union pin: illegal lanes, window lanes *)
  ill_buf : int array;   (* pin positions of one lane, then copied out *)
  win_buf : int array;
}

let lanes = Sta.lanes

let new_scratch sta_an =
  let cv = Netlist.compact (Sta.netlist sta_an) in
  let n = Netlist.Compact.n cv in
  let n_pins = Int.max 1 (Netlist.Compact.fanin_lo cv n) in
  { batch = Sta.batch_scratch sta_an; flags = Array.make n 0;
    cand = Array.make n 0; sort_tmp = Array.make n 0;
    pin_lanes = Array.make n_pins 0;
    ill_buf = Array.make n_pins 0; win_buf = Array.make n_pins 0 }

(* What a patch carries to the stage it builds, so that the next patch
   pays for its edit rather than for the design: built on a stage's
   first patch, so a stage that was never patched carries nothing. It
   describes the stage whose slot holds it and moves, through that
   atomic slot, to the stage a patch builds, which updates it in place:
   of two patches of one stage, one takes it and the other builds its
   own, so a stage stays shareable between domains. *)
type carry = {
  back : Sta.db;            (* Sta.backward_all_db of the stage's STA *)
  launchable : bool array;  (* per node: a slave after it can launch *)
  arcs : Sta.slave_arcs;
  mutable spare : scratch option; (* a classification scratch *)
}

type t = {
  cc : Transform.comb_circuit;
  source : Netlist.t option; (* two-phase netlist the cc came from *)
  lib : Liberty.t;
  clocking : Clocking.t;
  sta : Sta.t;
  annot : float array option; (* ECO delay annotations baked into sta *)
  regions : Bytes.t; (* per node, its region's [code] *)
  illegal : int array; (* fanin pins that can never hold a slave, ascending *)
  per_sink : (int * classified) array;
    (* every sink's classification, in sink order — read by the
       accessors below and reused by {!patch} for sinks outside an
       edit's affected cone *)
  slot : int array; (* node id -> index into [per_sink], -1 off sinks *)
  lp_gen : int; (* shared only by stages whose LP inputs are equal *)
  carry : carry option Atomic.t;
}

let cc t = t.cc
let source t = t.source
let annot t = t.annot
let comb t = t.cc.Transform.comb
let sta t = t.sta
let lib t = t.lib
let clocking t = t.clocking
let model t = Sta.model t.sta
(* Regions one byte per node: a patch copies and compares them whole. *)
let code = function Rm -> '\000' | Rn -> '\001' | Rr -> '\002'
let of_code = function '\000' -> Rm | '\001' -> Rn | _ -> Rr
let region t v = of_code (Bytes.get t.regions v)
let sinks t = Netlist.outputs (comb t)
let slave_latch t = Liberty.latch t.lib

(* The classification record of sink [s]; [fn] names the accessor in
   the [Invalid_argument] a non-sink raises. *)
let entry fn t s =
  if s < 0 || s >= Array.length t.slot || t.slot.(s) < 0 then
    invalid_arg (fn ^ ": not a sink node")
  else snd t.per_sink.(t.slot.(s))

let classify t s = (entry "Stage.classify" t s).cls

let illegal_pins t = t.illegal
let lp_generation t = t.lp_gen

let db_of_sink t s = Sta.backward_packed t.sta ~sink:s

let a_value t ~db ~u ~v =
  Sta.arrival_with_slave_after t.sta ~clocking:t.clocking
    ~latch:(slave_latch t) ~u ~v ~db

let latched_arrivals t index =
  Sta.forward_with_latches t.sta ~clocking:t.clocking ~latch:(slave_latch t)
    index

let initial_arrivals t =
  let net = comb t in
  latched_arrivals t
    (Transform.pin_index net (Transform.initial_placements net))

let near_critical_initial t =
  let arr = initial_arrivals t in
  Array.fold_right
    (fun s acc ->
      if Clocking.past_period t.clocking arr.(s) then s :: acc else acc)
    (sinks t) []

let window_pins t s =
  let r = entry "Stage.window_pins" t s in
  match r.cls with
  | Target _ | Never_ed -> r.win
  | Always_ed -> invalid_arg "Stage.window_pins: always-error-detecting sink"

let max_path t s =
  ignore (entry "Stage.max_path" t s : classified);
  Sta.arrival_at_sink t.sta s

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

(* A slave just after a node whose forward delay is past this bound
   misses its setup against the closing edge (Constraint 6). *)
let launch_bound clocking latch =
  Clocking.slave_close clocking -. latch.Liberty.setup +. Clocking.tolerance

(* [can_launch u]: a slave just after [u] meets its setup against the
   closing edge (Constraint 6). *)
let can_launch ~sta_an ~clocking ~latch =
  let launch_by = launch_bound clocking latch in
  fun u -> Sta.df sta_an u <= launch_by

let launchable_of ~sta_an ~clocking ~latch =
  Array.init
    (Netlist.node_count (Sta.netlist sta_an))
    (can_launch ~sta_an ~clocking ~latch)

(* The regions of §IV-B of the nodes [stale] visits, written into
   [regions]: [V_m] where some path is too long for a slave before the
   node, [V_n] at sinks and where a slave after the node cannot launch.
   A node that must and cannot move at once makes the stage illegal;
   the highest such id names the error. Sources are promoted
   afterwards ({!promote_and_warn}). *)
let compute_regions ~sta_an ~clocking ~launchable ~stale regions =
  let budget = Clocking.backward_budget clocking +. Clocking.tolerance in
  let back_all = Sta.backward_all sta_an in
  let net = Sta.netlist sta_an in
  let tags = (Netlist.compact net).Netlist.Compact.tags in
  let conflict = ref (-1) in
  stale (fun v ->
      let must_move = back_all.(v) > budget in
      let cannot_move =
        tags.(v) = Netlist.Compact.tag_output || not launchable.(v)
      in
      if must_move && cannot_move then conflict := Int.max !conflict v
      else
        Bytes.set regions v
          (code (if must_move then Rm else if cannot_move then Rn else Rr)));
  if !conflict >= 0 then
    Error (Error.Illegal_stage { node = Netlist.node_name net !conflict })
  else Ok ()

(* A node's flags, each a lane mask (bit [l] for the batch's lane [l])
   in its own [lanes]-bit field of one int, at these shifts. *)
let f_bad = 0              (* some source-to-node path passes no good position *)
let f_late_in = lanes      (* some fanin pin's A exceeds the period *)
let f_good_out = 2 * lanes (* some cone out-edge is a good position *)
let f_late_out = 3 * lanes (* some cone out-edge's A exceeds the period *)
let f_ill_in = 4 * lanes   (* some fanin pin's A exceeds the max delay *)

let all_lanes = (1 lsl lanes) - 1
let[@inline] field flags f = (flags lsr f) land all_lanes

(* Set bits of a lane mask ([lanes] = 8 bits). *)
let popcount m =
  let m = m - ((m lsr 1) land 0x55) in
  let m = (m land 0x33) + ((m lsr 2) land 0x33) in
  (m + (m lsr 4)) land 0x0f

(* Ascending LSD radix sort of the node ids [a.(0 .. len-1)], all
   below [n]: a byte per pass, through [tmp]. Linear in [len] plus 256
   per pass, where a comparison sort of a batch's candidates (often
   tens of thousands of nodes on the 100k row) is not. *)
let sort_ids ~n (a : int array) (tmp : int array) len =
  let count = Array.make 256 0 in
  let src = ref a and dst = ref tmp and shift = ref 0 in
  while 1 lsl !shift < n do
    let s = !src and d = !dst and sh = !shift in
    Array.fill count 0 256 0;
    for i = 0 to len - 1 do
      let b = (s.(i) lsr sh) land 255 in
      count.(b) <- count.(b) + 1
    done;
    let at = ref 0 in
    for b = 0 to 255 do
      let c = count.(b) in
      count.(b) <- !at;
      at := !at + c
    done;
    for i = 0 to len - 1 do
      let x = s.(i) in
      let b = (x lsr sh) land 255 in
      d.(count.(b)) <- x;
      count.(b) <- count.(b) + 1
    done;
    src := d;
    dst := s;
    shift := sh + 8
  done;
  if !src != a then Array.blit !src 0 a 0 len

let m_cone_nodes = Rar_obs.Metrics.counter "stage_cone_nodes"
let m_sweep_nodes = Rar_obs.Metrics.counter "stage_sweep_nodes"
let m_sinks_pruned = Rar_obs.Metrics.counter "stage_sinks_pruned"

(* A sink decided by the prune bound: no slave position can be late. *)
let pruned = { cls = Never_ed; ill = [||]; win = [||]; empty_cut = false }

let prefix buf len = if len = 0 then [||] else Array.sub buf 0 len

(* Classification of a batch of sinks by their cones (paper §IV-A),
   lane [l] for [sinks.(l)]. While scanning every latch position in a
   cone we also record the positions that violate the max-delay bound
   for its sink (the per-edge form of Constraint 7). Reads only the
   shared read-only [sta_an] (whose [backward_all] cache {!make} forces
   before fan-out) and [arcs], and writes only [sc], so batches
   classify in parallel, one scratch per participant. [launchable u]:
   a slave just after [u] meets its own setup against the closing edge
   (Constraint 6). *)
let classify_batch ~sta_an ~clocking ~arcs ~launchable sc sinks =
  (* {!Clocking.past_period} and {!Clocking.past_max_delay}, with their
     thresholds read once. *)
  let late_at = Clocking.period clocking +. Clocking.tolerance in
  let ill_at = Clocking.max_delay clocking +. Clocking.tolerance in
  let cv = Netlist.compact (Sta.netlist sta_an) in
  let b = sc.batch in
  Sta.load_batch sta_an b sinks;
  let k = b.Sta.width and size = b.Sta.size in
  let order = b.Sta.order and mask = b.Sta.mask and a = b.Sta.a in
  Rar_obs.Metrics.add m_sweep_nodes size;
  let flags = sc.flags and cand = sc.cand in
  let tags = cv.Netlist.Compact.tags and head = cv.Netlist.Compact.fanin_head
  and fin = cv.Netlist.Compact.fanin in
  (* One forward pass over the union, in its topological [order],
     reading each pin's A once per lane. A position (u,v) is legal when
     [launchable u] and the capture meets max delay (per-edge
     Constraint 7); it is *good* when additionally the capture stays
     out of the resiliency window. The pass records each pin's late and
     illegal lanes and the lanes with a legal late position, runs the
     path DP — [f_bad]: some path to the node passed no good position,
     so a sink can be made non-error-detecting iff it is not bad — and
     records the g(t) conditions as node flags, a bit per lane. A
     node's flags are initialised when the pass reaches it, before any
     of its fanouts (later in the order) set out-edge bits on it. Nodes
     with a late fanin pin in some lane are collected as candidates:
     they hold every window and illegal edge and every gate of g(t). *)
  let pin_lanes = sc.pin_lanes in
  let cone_nodes = ref 0 and n_cand = ref 0 and legal_late = ref 0 in
  for i = 0 to size - 1 do
    let v = order.(i) in
    let mv = mask.(v) in
    cone_nodes := !cone_nodes + popcount mv;
    if tags.(v) = Netlist.Compact.tag_input then flags.(v) <- mv lsl f_bad
    else begin
      Sta.batch_slave_arrivals sta_an b arcs v;
      let bad = ref 0 and late_in = ref 0 and ill_in = ref 0 in
      let lo = head.(v) in
      for p = lo to head.(v + 1) - 1 do
        let u = fin.(p) and j = (p - lo) * lanes in
        let late = ref 0 and ill = ref 0 in
        for l = 0 to k - 1 do
          (* in bounds: [Sta.batch] sizes [a] for the widest node *)
          let ap = Array.unsafe_get a (j + l) in
          if ap > late_at then begin
            late := !late lor (1 lsl l);
            if ap > ill_at then ill := !ill lor (1 lsl l)
          end
        done;
        let late = !late and ill = !ill in
        (* Max delay >= period, so a position is good iff its driver is
           launchable and it is not late. A lane whose cone misses [v]
           reads A = -inf, which is not late: only [v]'s own lanes have
           a cone edge here. *)
        let good =
          if launchable.(u) then begin
            legal_late := !legal_late lor (late land lnot ill);
            mv land lnot late
          end
          else 0
        in
        let fu = flags.(u) in
        flags.(u) <- fu lor (good lsl f_good_out) lor (late lsl f_late_out);
        bad := !bad lor (field fu f_bad land lnot good);
        late_in := !late_in lor late;
        ill_in := !ill_in lor ill;
        pin_lanes.(p) <- ill lor ((late land lnot ill) lsl lanes)
      done;
      flags.(v) <-
        ((!bad land mv) lsl f_bad) lor (!late_in lsl f_late_in)
        lor (!ill_in lsl f_ill_in);
      if !late_in <> 0 then begin
        cand.(!n_cand) <- v;
        incr n_cand
      end
    end
  done;
  Rar_obs.Metrics.add m_cone_nodes !cone_nodes;
  (* A sink is Always_ed when bad, else Never_ed when no legal position
     is late, else a target. *)
  let always = ref 0 in
  for l = 0 to k - 1 do
    if field flags.(sinks.(l)) f_bad land (1 lsl l) <> 0 then
      always := !always lor (1 lsl l)
  done;
  let always = !always in
  let target = !legal_late land lnot always in
  (* Keep the candidates some lane lists: a late node of a target lane,
     or a node holding an illegal edge in any lane (a Never_ed or
     Always_ed sink keeps only its illegal edges). *)
  let n = ref 0 in
  for j = 0 to !n_cand - 1 do
    let v = cand.(j) in
    let f = flags.(v) in
    if (field f f_late_in land target) lor field f f_ill_in <> 0 then begin
      cand.(!n) <- v;
      incr n
    end
  done;
  (* g(t) per Eq. 8-9, over legal positions: a node with a good
     out-edge and a late position before it. A source has no fanin
     pins; condition (9) uses its host-edge position, i.e. its own cone
     out-edges. *)
  if target <> 0 then
    for i = 0 to size - 1 do
      let v = order.(i) in
      let f = flags.(v) in
      if
        tags.(v) = Netlist.Compact.tag_input
        && field f f_good_out land field f f_late_out land target <> 0
      then begin
        cand.(!n) <- v;
        incr n
      end
    done;
  let n_cand = !n in
  (* The arrays follow ascending node id, then pin order. *)
  sort_ids ~n:(Netlist.Compact.n cv) cand sc.sort_tmp n_cand;
  let ill_buf = sc.ill_buf and win_buf = sc.win_buf in
  Array.init k (fun l ->
      let bit = 1 lsl l in
      let is_target = target land bit <> 0 in
      let n_ill = ref 0 and n_win = ref 0 and cut = ref [] in
      for j = 0 to n_cand - 1 do
        let v = cand.(j) in
        let f = flags.(v) in
        let tg = tags.(v) in
        if tg = Netlist.Compact.tag_input then begin
          if
            is_target
            && field f f_good_out land field f f_late_out land bit <> 0
          then cut := v :: !cut
        end
        else if
          field f f_late_in land bit <> 0
          && (is_target || field f f_ill_in land bit <> 0)
        then begin
          for p = head.(v) to head.(v + 1) - 1 do
            let pl = pin_lanes.(p) in
            if pl land bit <> 0 then begin
              ill_buf.(!n_ill) <- p;
              incr n_ill
            end
            else if (pl lsr lanes) land bit <> 0 then begin
              win_buf.(!n_win) <- p;
              incr n_win
            end
          done;
          if
            is_target && tg = Netlist.Compact.tag_gate
            && field f f_good_out land bit <> 0
          then cut := v :: !cut
        end
      done;
      let ill = prefix ill_buf !n_ill in
      let none = { cls = Never_ed; ill; win = [||]; empty_cut = false } in
      if always land bit <> 0 then { none with cls = Always_ed }
      else if not is_target then none
      else if !cut = [] then { none with cls = Always_ed; empty_cut = true }
      else
        { none with cls = Target { cut = List.rev !cut };
          win = prefix win_buf !n_win })

(* The prune test (DESIGN.md §13): a slave anywhere delays a sink by at
   most [d] ({!Sta.slave_delay_bound}), so a sink with
   [arrival + d <= period] has no late position — no window or illegal
   edge, and its worst legal A is inside the period. With every source
   launchable, each source's out-edges are then good positions, no
   path is bad, and the sink is Never_ed: exactly what its cone scan
   would return. *)
let never_late_test ~sta_an ~clocking ~latch =
  let period = Clocking.period clocking in
  match Sta.slave_delay_bound sta_an ~clocking ~latch with
  | Some d
    when Array.for_all
           (can_launch ~sta_an ~clocking ~latch)
           (Netlist.inputs (Sta.netlist sta_an)) ->
    fun s -> Sta.arrival_at_sink sta_an s +. d <= period
  | Some _ | None -> fun _ -> false

(* Estimated swept nodes per pool participant (DESIGN.md §11): only
   stages past two million leave the calling domain. *)
let sweep_per_participant = ref 1_000_000

let with_sweep_per_participant w f =
  let saved = !sweep_per_participant in
  sweep_per_participant := Int.max 1 w;
  Fun.protect ~finally:(fun () -> sweep_per_participant := saved) f

(* Classify [sinks], in sink order. The prune bound decides what it
   can first; the other sinks are cut, in sink order, into batches of
   [lanes] (the last may be shorter) before dispatch, so the batches,
   and the counters they add, are the same for every pool size. The
   batches classify over the domain pool, one scratch per
   participant; the sweep is estimated as the first batch's union
   times the batch count. [shared ()] gives what every batch reads —
   per node, whether a slave after it can launch, and the
   sink-independent half of Eq. 5 — and the first participant's
   scratch; it is called once, in the calling domain, and only when
   some sink is left to sweep. *)
let classify_sinks ~sta_an ~clocking ~latch ~shared sinks =
  Rar_obs.Trace.span "stage/classify" @@ fun () ->
  let never_late = never_late_test ~sta_an ~clocking ~latch in
  let decided = Array.map never_late sinks in
  let open_ =
    Array.of_list
      (List.filteri (fun i _ -> not decided.(i)) (Array.to_list sinks))
  in
  let n_open = Array.length open_ in
  Rar_obs.Metrics.add m_sinks_pruned (Array.length sinks - n_open);
  let batches =
    Array.init ((n_open + lanes - 1) / lanes) (fun i ->
        Array.sub open_ (i * lanes) (Int.min lanes (n_open - (i * lanes))))
  in
  let classified =
    if n_open = 0 then [||]
    else begin
      let launchable, arcs, sc = shared () in
      (* The estimate's DFS uses the first participant's scratch. *)
      let spare = Atomic.make (Some sc) in
      Rar_util.Pool.map_adaptive_with
        ~max_participants:(fun () ->
          Sta.union_size sta_an sc.batch batches.(0)
          * Array.length batches / !sweep_per_participant)
        ~init:(fun () ->
          match Atomic.exchange spare None with
          | Some sc -> sc
          | None -> new_scratch sta_an)
        batches
        (classify_batch ~sta_an ~clocking ~arcs ~launchable)
    end
  in
  let next = ref 0 in
  Array.mapi
    (fun i s ->
      if decided.(i) then (s, pruned)
      else begin
        let r = classified.(!next / lanes).(!next mod lanes) in
        incr next;
        (s, r)
      end)
    sinks

(* The first of [sinks], in sink order, whose arrival is past the
   max-delay bound: no slave placement can time it. *)
let untimeable ~sta_an ~clocking sinks =
  match
    Array.find_opt
      (fun s -> Clocking.past_max_delay clocking (Sta.arrival_at_sink sta_an s))
      sinks
  with
  | None -> Ok ()
  | Some s ->
    Error
      (Error.Untimeable_sink
         { sink = Netlist.node_name (Sta.netlist sta_an) s;
           limit = Clocking.max_delay clocking })

(* Every sink's illegal pins as one ascending set. A set has no order
   of its own, so the stage is the same for every pool size and
   between a cold make and a patch. *)
let illegal_of net per_sink =
  let n_pins = Array.length (Netlist.compact net).Netlist.Compact.fanin in
  let seen = Array.make n_pins false in
  let illegal = ref [] in
  Array.iter
    (fun (_, r) ->
      Array.iter
        (fun p ->
          if not seen.(p) then begin
            seen.(p) <- true;
            illegal := p :: !illegal
          end)
        r.ill)
    per_sink;
  Array.of_list (List.sort Int.compare !illegal)

(* The back half {!make} and {!patch} share: promote each source whose
   shared initial position covers an illegal pin — it must clear its
   host latch, so it moves to V_m — and warn of every target with an
   empty g(t). *)
let promote_and_warn net regions illegal per_sink =
  let cv = Netlist.compact net in
  let fin = cv.Netlist.Compact.fanin and tags = cv.Netlist.Compact.tags in
  Array.iter
    (fun p ->
      let u = fin.(p) in
      if tags.(u) = Netlist.Compact.tag_input && Bytes.get regions u = code Rr
      then Bytes.set regions u (code Rm))
    illegal;
  Array.iter
    (fun (s, r) ->
      if r.empty_cut then
        Log.warn (fun m ->
            m "sink %s: retiming-dependent but empty g(t); treating as \
               always error-detecting"
              (Netlist.node_name net s)))
    per_sink

let generations = Atomic.make 0
let fresh_generation () = Atomic.fetch_and_add generations 1

let make ?(model = Sta.Path_based) ?sta ?source ?annot ~lib ~clocking cc =
  let net = cc.Transform.comb in
  let sta_an =
    match sta with
    | None -> Sta.analyse ?annot lib model net
    | Some a when Sta.netlist a == net && Sta.model a = model -> a
    | Some _ -> invalid_arg "Stage.make: sta analyses another netlist or model"
  in
  let latch = Liberty.latch lib in
  let launchable = launchable_of ~sta_an ~clocking ~latch in
  let n = Netlist.node_count net in
  let regions = Bytes.make n (code Rr) in
  let all f = for v = 0 to n - 1 do f v done in
  match compute_regions ~sta_an ~clocking ~launchable ~stale:all regions with
  | Error _ as e -> e
  | Ok () -> (
    (* Batches classify independently (each sweeps its sinks' cones
       against the shared read-only STA), so they fan out across the
       domain pool, one batch per element. [compute_regions] has
       forced [backward_all]'s memo, so the shared [Sta.t] stays
       read-only inside the workers. *)
    let per_sink =
      classify_sinks ~sta_an ~clocking ~latch
        ~shared:(fun () ->
          ( launchable,
            Sta.slave_arcs sta_an ~clocking ~latch,
            new_scratch sta_an ))
        (Netlist.outputs net)
    in
    match untimeable ~sta_an ~clocking (Netlist.outputs net) with
    | Error _ as e -> e
    | Ok () ->
      let illegal = illegal_of net per_sink in
      promote_and_warn net regions illegal per_sink;
      let slot = Array.make (Netlist.node_count net) (-1) in
      Array.iteri (fun i (s, _) -> slot.(s) <- i) per_sink;
      Ok { cc; source; lib; clocking; sta = sta_an; annot; regions; illegal;
           per_sink; slot; lp_gen = fresh_generation ();
           carry = Atomic.make None })

let patch t (applied : Transform.Edit.applied) =
  Rar_obs.Trace.span "stage/patch" @@ fun () ->
  let net = applied.Transform.Edit.net in
  let annot = Some applied.Transform.Edit.annot in
  let dirty_arcs = applied.Transform.Edit.dirty_arcs
  and seeds = applied.Transform.Edit.seeds in
  let cc = { t.cc with Transform.comb = net } in
  let lib = t.lib and clocking = t.clocking in
  let latch = Liberty.latch lib in
  let sta_an, changed = Sta.patch t.sta ~net ?annot ~dirty_arcs ~seeds () in
  let cv = Netlist.compact net in
  let n = Netlist.Compact.n cv in
  (* The carried state, brought up to date where the edit can have
     moved it: backward times over the dirty backward cone, launch
     tests and regions where an arrival or a backward time moved (and
     at every source, which {!promote_and_warn} re-promotes), slave
     arcs on the pins of changed nodes and of their readers. A stage's
     first patch, or one whose state another patch took, builds it in
     full. *)
  let regions = Bytes.copy t.regions in
  let carry, stale =
    match Atomic.exchange t.carry None with
    | None ->
      ( { back = Sta.backward_all_db sta_an;
          launchable = launchable_of ~sta_an ~clocking ~latch;
          arcs = Sta.slave_arcs sta_an ~clocking ~latch;
          spare = None },
        fun f -> for v = 0 to n - 1 do f v done )
    | Some c ->
      let moved =
        Sta.patch_backward_all sta_an ~prev:t.sta ~db:c.back ~dirty_arcs ~seeds
      in
      let can = can_launch ~sta_an ~clocking ~latch in
      Array.iteri (fun v ch -> if ch then c.launchable.(v) <- can v) changed;
      Sta.patch_slave_arcs sta_an c.arcs ~clocking ~latch ~changed;
      ( c,
        fun f ->
          Array.iteri (fun v ch -> if ch then f v) changed;
          List.iter f moved;
          Array.iter f (Netlist.inputs net) )
  in
  let launchable = carry.launchable in
  match compute_regions ~sta_an ~clocking ~launchable ~stale regions with
  | Error _ as e -> e
  | Ok () -> (
    (* Affected sinks: everything forward-reachable (over the edited
       netlist) from a node whose arcs, fanins or arrival changed.
       Every other sink's fan-in cone has identical structure and
       timing, so its cached classification is still exact — and its
       arrival too, so only an affected sink can be untimeable. *)
    let reach =
      Bytes.init n (fun v -> if changed.(v) then '\001' else '\000')
    in
    let topo = Netlist.Compact.topo cv in
    for i = 0 to n - 1 do
      let v = topo.(i) in
      if Bytes.get reach v <> '\000' then begin
        let hi = Netlist.Compact.fanout_hi cv v in
        for p = Netlist.Compact.fanout_lo cv v to hi - 1 do
          Bytes.set reach (Netlist.Compact.fanout cv p) '\001'
        done
      end
    done;
    let affected =
      Array.of_list
        (Array.fold_right
           (fun (s, _) acc ->
             if Bytes.get reach s <> '\000' then s :: acc else acc)
           t.per_sink [])
    in
    let scratch () =
      match carry.spare with
      | Some sc -> sc
      | None ->
        let sc = new_scratch sta_an in
        carry.spare <- Some sc;
        sc
    in
    let reclassified =
      classify_sinks ~sta_an ~clocking ~latch
        ~shared:(fun () -> (launchable, carry.arcs, scratch ()))
        affected
    in
    match untimeable ~sta_an ~clocking affected with
    | Error _ as e -> e
    | Ok () ->
      let per_sink = Array.copy t.per_sink in
      let kept = ref true and same_ill = ref true in
      Array.iter
        (fun (s, r) ->
          let i = t.slot.(s) in
          let old = snd per_sink.(i) in
          kept := !kept && r.cls = old.cls;
          same_ill := !same_ill && r.ill = old.ill;
          per_sink.(i) <- (s, r))
        reclassified;
      let illegal = if !same_ill then t.illegal else illegal_of net per_sink in
      promote_and_warn net regions illegal per_sink;
      (* The LP ({!Rgraph.build}) reads the graph, the regions, the
         illegal pins and each sink's class and g(t): a stage that left
         all of them as they were keeps its generation. *)
      let lp_gen =
        if
          seeds = [] && !kept
          && Bytes.equal regions t.regions
          && illegal = t.illegal
        then t.lp_gen
        else fresh_generation ()
      in
      Ok { cc; source = t.source; lib; clocking; sta = sta_an; annot; regions;
           illegal; per_sink; slot = t.slot; lp_gen;
           carry = Atomic.make (Some carry) })

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
    (count (fun v -> region t v = Rm) ids)
    (count (fun v -> region t v = Rn) ids)
    (count (fun v -> region t v = Rr) ids)
    never always target
