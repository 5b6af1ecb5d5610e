module Netlist = Rar_netlist.Netlist
module Liberty = Rar_liberty.Liberty
module Difflp = Rar_flow.Difflp
module Spfa = Rar_flow.Spfa
module B = Netlist.Builder

(* One retiming-graph connection: [w] registers between the driving
   vertex and the consuming gate's pin. [phys_src] remembers which
   netlist node actually drives the chain (distinguishes the PIs that
   all map to the host vertex). *)
type conn = {
  src : int;       (* graph vertex *)
  dst : int;       (* graph vertex; host for primary outputs *)
  w : int;
  phys_src : int;  (* netlist node id *)
  sink_node : int; (* netlist node id of the consuming gate/output *)
  pin : int;
}

type graph = {
  net : Netlist.t;
  lib : Liberty.t;
  host_registers : int;
  n : int;                    (* vertices: 0 = host, then gates *)
  vertex_of_gate : int array; (* netlist id -> vertex or -1 *)
  gate_of_vertex : int array; (* vertex -> netlist id; -1 for host *)
  delays : float array;       (* per vertex *)
  conns : conn list;
  self_loop_regs : int;       (* registers on self loops: constant *)
  registers_before : int;
  mutable wd_cache : Wd.t option;
      (* memoised sparse W/D kernel; everything else in the record is
         immutable, so the cache is keyed on the graph value itself.
         Guarded by [wd_lock]: concurrent solves on one graph value
         must neither duplicate the all-pairs build nor observe a
         partially published one, so every access goes through the
         lock (reads included — plain
         OCaml 5 accesses give no publication ordering). *)
  wd_lock : Mutex.t;
}

let node_count g = g.n

let of_netlist ?(host_registers = 0) ~lib net =
  Rar_obs.Trace.span "classic/of_netlist" @@ fun () ->
  Array.iter
    (fun v ->
      match Netlist.kind net v with
      | Netlist.Seq Netlist.Flop -> ()
      | Netlist.Seq _ ->
        invalid_arg "Classic.of_netlist: expected a flop-based netlist"
      | _ -> ())
    (Netlist.seqs net);
  let nn = Netlist.node_count net in
  let vertex_of_gate = Array.make nn (-1) in
  let gates = Netlist.gates net in
  Array.iteri (fun i v -> vertex_of_gate.(v) <- i + 1) gates;
  let n = Array.length gates + 1 in
  let gate_of_vertex = Array.make n (-1) in
  Array.iteri (fun i v -> gate_of_vertex.(i + 1) <- v) gates;
  let delays = Array.make n 0. in
  Array.iter
    (fun v ->
      match Netlist.kind net v with
      | Netlist.Gate { fn; drive } ->
        let cell = Liberty.comb_cell lib fn ~drive in
        delays.(vertex_of_gate.(v)) <-
          Liberty.cell_delay_max cell
            ~n_pins:(Array.length (Netlist.fanins net v))
            ~load:(Liberty.gate_load lib net v)
      | _ -> ())
    gates;
  (* Trace each node back through register chains to its driving
     vertex. *)
  let memo = Array.make nn None in
  let rec origin ?(guard = 0) x =
    if guard > nn then
      invalid_arg "Classic.of_netlist: register-only cycle"
    else
      match memo.(x) with
      | Some o -> o
      | None ->
        let o =
          match Netlist.kind net x with
          | Netlist.Input -> (0, 0, x)
          | Netlist.Gate _ -> (vertex_of_gate.(x), 0, x)
          | Netlist.Seq Netlist.Flop ->
            let sv, w, phys = origin ~guard:(guard + 1) (Netlist.fanins net x).(0) in
            (sv, w + 1, phys)
          | Netlist.Seq _ | Netlist.Output ->
            invalid_arg "Classic.of_netlist: unexpected driver kind"
        in
        memo.(x) <- Some o;
        o
  in
  let conns = ref [] in
  let self_loop_regs = ref 0 in
  for v = 0 to nn - 1 do
    match Netlist.kind net v with
    | Netlist.Gate _ ->
      Array.iteri
        (fun pin x ->
          let sv, w, phys = origin x in
          let dv = vertex_of_gate.(v) in
          if sv = dv && w > 0 then self_loop_regs := !self_loop_regs + w
          else
            conns :=
              { src = sv; dst = dv; w; phys_src = phys; sink_node = v; pin }
              :: !conns)
        (Netlist.fanins net v)
    | Netlist.Output ->
      let x = (Netlist.fanins net v).(0) in
      let sv, w, phys = origin x in
      conns :=
        { src = sv; dst = 0; w = w + host_registers; phys_src = phys;
          sink_node = v; pin = 0 }
        :: !conns
    | Netlist.Input | Netlist.Seq _ -> ()
  done;
  (* Well-formedness: no zero-weight cycle (DFS over the w = 0 edges;
     the W/D recurrence is meaningless otherwise). *)
  let zero_adj = Array.make n [] in
  List.iter
    (fun c ->
      if c.w = 0 && c.src <> c.dst then
        zero_adj.(c.src) <- c.dst :: zero_adj.(c.src))
    !conns;
  (* Iterative DFS — recursion would blow the stack on million-gate
     chains. *)
  let color = Array.make n 0 in
  let stack = ref [] in
  for root = 0 to n - 1 do
    if color.(root) = 0 then begin
      stack := [ (root, zero_adj.(root)) ];
      color.(root) <- 1;
      while !stack <> [] do
        match !stack with
        | [] -> ()
        | (v, succs) :: rest -> (
          match succs with
          | [] ->
            color.(v) <- 2;
            stack := rest
          | u :: more ->
            stack := (v, more) :: rest;
            if color.(u) = 1 then
              invalid_arg
                "Classic.of_netlist: zero-weight cycle (a combinational \
                 input-to-output path closes it through the host; see \
                 ~host_registers)"
            else if color.(u) = 0 then begin
              color.(u) <- 1;
              stack := (u, zero_adj.(u)) :: !stack
            end)
      done
    end
  done;
  let registers_before =
    Array.fold_left
      (fun acc v ->
        match Netlist.kind net v with
        | Netlist.Seq Netlist.Flop -> acc + 1
        | _ -> acc)
      0 (Netlist.seqs net)
  in
  { net; lib; host_registers; n; vertex_of_gate; gate_of_vertex; delays;
    conns = !conns; self_loop_regs = !self_loop_regs; registers_before;
    wd_cache = None; wd_lock = Mutex.create () }

(* ------------------------------------------------------------------ *)
(* W / D matrices (Eq. 1-2): sparse kernel, memoised per graph         *)
(* ------------------------------------------------------------------ *)

let wd_edges g =
  List.rev_map (fun c -> (c.src, c.dst, c.w)) g.conns

let m_wd_hits = Rar_obs.Metrics.counter "wd_memo_hits"
let m_wd_misses = Rar_obs.Metrics.counter "wd_memo_misses"

let with_wd_lock g f =
  Mutex.lock g.wd_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock g.wd_lock) f

(* Read or seed the memo under the lock. The build itself also runs
   under the lock: it fans out on the domain pool, which is safe (pool
   tasks never touch graph memos), and serialising it is the point —
   two racing solvers must not both pay for (or tear) the all-pairs
   kernel. *)
let wd g =
  with_wd_lock g @@ fun () ->
  match g.wd_cache with
  | Some t ->
    Rar_obs.Metrics.incr m_wd_hits;
    t
  | None ->
    Rar_obs.Metrics.incr m_wd_misses;
    let t = Wd.build ~n:g.n ~delays:g.delays ~edges:(wd_edges g) in
    g.wd_cache <- Some t;
    t

(* The current period is the worst zero-register path delay. When the
   W/D kernel is already memoised, read it straight off the matrices;
   otherwise run the O(V + E) zero-weight DP instead of paying for an
   all-pairs build whose only consumer would be this one scalar (the
   post-[realize] period measurement in {!retime} hits this path, and
   at 10^6 gates the all-pairs build is not an option). Both compute
   the max over the same set of left-accumulated path-delay sums, so
   the float is bitwise identical. *)
let period_of g =
  let cached = with_wd_lock g (fun () -> g.wd_cache) in
  match cached with
  | Some t ->
    Rar_obs.Metrics.incr m_wd_hits;
    Wd.max_zero_weight_delay t
  | None ->
    Wd.max_zero_weight_delay_edges ~n:g.n ~delays:g.delays
      ~edges:(wd_edges g)

(* The arc array of Eq. 3 at [period]: the fan-out arcs first, then
   the period constraints, emitted in the dense double-scan order so
   the downstream solvers see byte-identical input. Two passes — count,
   then fill backwards — reproduce exactly the array the old
   cons-then-[Array.of_list] construction produced (i.e. the reverse of
   the emission order) without the intermediate list. *)
let constraint_arcs g ~period =
  let t = wd g in
  let k = ref 0 in
  List.iter (fun c -> if c.src <> c.dst then incr k) g.conns;
  Wd.iter_over_period t ~period (fun _ _ _ -> incr k);
  let arcs = Array.make !k (0, 0, 0) in
  let pos = ref (!k - 1) in
  List.iter
    (fun c ->
      if c.src <> c.dst then begin
        arcs.(!pos) <- (c.src, c.dst, c.w);
        decr pos
      end)
    g.conns;
  Wd.iter_over_period t ~period (fun u v w ->
      arcs.(!pos) <- (u, v, w - 1);
      decr pos);
  arcs

let feasible ?deadline g ~period =
  match
    Spfa.from_virtual_root ?deadline ~n:g.n
      ~arcs:(constraint_arcs g ~period) ()
  with
  | Ok _ -> true
  | Error _ -> false

(* Each probe after the first feasible one warm-starts its SPFA from
   that probe's potentials: they satisfy every arc the earlier (larger)
   period had, and shrinking the period only adds arcs, so relaxation
   restarts from the previous fixpoint instead of from zero.
   Negative-cycle detection (and hence the boolean) is
   init-independent. *)
let min_period ?deadline g =
  let arr = Wd.distinct_d_values (wd g) in
  let lo = ref 0 and hi = ref (Array.length arr - 1) in
  let warm = ref None in
  (* the largest D is always feasible (no constraints) *)
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let arcs = constraint_arcs g ~period:arr.(mid) in
    let result =
      match !warm with
      | Some init -> Spfa.from_init ?deadline ~n:g.n ~arcs ~init ()
      | None -> Spfa.from_virtual_root ?deadline ~n:g.n ~arcs ()
    in
    match result with
    | Ok pi ->
      warm := Some pi;
      hi := mid
    | Error _ -> lo := mid + 1
  done;
  arr.(!lo)

(* ------------------------------------------------------------------ *)
(* Min-area retiming at a period                                       *)
(* ------------------------------------------------------------------ *)

type outcome = {
  r : int array;
  registers_before : int;
  registers_after : int;
  achieved_period : float;
  retimed : Netlist.t;
}

let realize g r =
  Rar_obs.Trace.span "classic/realize" @@ fun () ->
  let net = g.net in
  let nn = Netlist.node_count net in
  let w_r c = c.w + r.(c.dst) - r.(c.src) in
  (* Register chains per physical driver: length = max over its conns. *)
  let chain_need = Hashtbl.create 64 in
  List.iter
    (fun c ->
      let k = w_r c in
      if k < 0 then failwith "Classic.realize: negative register count";
      let cur = Option.value ~default:0 (Hashtbl.find_opt chain_need c.phys_src) in
      if k > cur then Hashtbl.replace chain_need c.phys_src k)
    g.conns;
  let b = B.create ~name:(Netlist.name net ^ "$classic") () in
  let fresh = Array.make nn (-1) in
  let deferred = ref [] in
  for v = 0 to nn - 1 do
    (* old registers disappear *)
    if not (Netlist.is_seq net v) then begin
      let id = B.copy b net v in
      fresh.(v) <- id;
      deferred := (id, v) :: !deferred
    end
  done;
  (* Build the shared chains. *)
  let chains = Hashtbl.create 64 in
  Hashtbl.iter
    (fun phys need ->
      let nodes = Array.make (need + 1) (-1) in
      nodes.(0) <- fresh.(phys);
      for k = 1 to need do
        nodes.(k) <-
          B.add_seq_deferred b
            (Printf.sprintf "%s$r%d" (Netlist.node_name net phys) k)
            ~role:Netlist.Flop
      done;
      Hashtbl.replace chains phys nodes)
    chain_need;
  Hashtbl.iter
    (fun phys (nodes : int array) ->
      for k = 1 to Array.length nodes - 1 do
        B.connect b nodes.(k) ~fanins:[ nodes.(k - 1) ]
      done;
      ignore phys)
    chains;
  (* Wire consumers: pin (sink, pin) takes chain node w_r. *)
  let pin_driver = Hashtbl.create 256 in
  List.iter
    (fun c ->
      let nodes =
        match Hashtbl.find_opt chains c.phys_src with
        | Some a -> a
        | None -> [| fresh.(c.phys_src) |]
      in
      Hashtbl.replace pin_driver (c.sink_node, c.pin) nodes.(w_r c))
    g.conns;
  List.iter
    (fun (id, v) ->
      let fanins =
        Array.to_list
          (Array.mapi
             (fun pin orig ->
               match Hashtbl.find_opt pin_driver (v, pin) with
               | Some d -> d
               | None ->
                 (* Self-loop connection (v feeds itself through
                    registers): retiming never changes a cycle's
                    register count, so rebuild the original chain
                    privately. *)
                 let rec depth x acc =
                   match Netlist.kind net x with
                   | Netlist.Seq Netlist.Flop ->
                     depth (Netlist.fanins net x).(0) (acc + 1)
                   | _ -> acc
                 in
                 let k = depth orig 0 in
                 if k = 0 then fresh.(orig)
                 else begin
                   let rec chain_from node i =
                     if i = 0 then node
                     else
                       chain_from
                         (B.add_seq b
                            (Printf.sprintf "%s$sl%d_%d"
                               (Netlist.node_name net v) pin i)
                            ~role:Netlist.Flop ~fanin:node)
                         (i - 1)
                   in
                   chain_from fresh.(v) k
                 end)
             (Netlist.fanins net v))
      in
      B.connect b id ~fanins)
    !deferred;
  B.freeze b

(* ------------------------------------------------------------------ *)
(* FEAS: min-period retiming without the all-pairs W/D matrices        *)
(* ------------------------------------------------------------------ *)

(* Leiserson–Saxe Algorithm FEAS. The W/D route above is exact and
   yields min-area solutions, but its all-pairs matrices are
   Theta(n^2) space — a non-starter at 10^6 gates. FEAS needs only the
   connection graph: per iteration it computes the clock period of
   [G_r] (a Kahn longest-path pass over the zero-weight retimed edges,
   O(V + E)) and increments [r(v)] for every vertex whose arrival
   exceeds the target. After at most |V| - 1 iterations the target is
   met iff it is feasible.

   Legality invariant: an edge [v -> y] with retimed weight 0 out of
   an over-period vertex [v] has [delta(y) >= delta(v) > P] (vertex
   delays are non-negative), so [y] is incremented in the same sweep
   and no weight ever goes negative. The host can be incremented like
   any vertex; retimings are invariant under a constant shift, so the
   result is renormalised to [r(host) = 0] at the end. *)

(* The connection graph flattened to parallel edge arrays plus a CSR
   index by source — the FEAS inner loop re-reads it every iteration
   and must not chase list cells. Self-loops carry no retiming freedom
   and are skipped. *)
let conn_csr g =
  let m = List.fold_left (fun a c -> if c.src <> c.dst then a + 1 else a) 0 g.conns in
  let esrc = Array.make (Int.max 1 m) 0
  and edst = Array.make (Int.max 1 m) 0
  and ew = Array.make (Int.max 1 m) 0 in
  let i = ref 0 in
  List.iter
    (fun c ->
      if c.src <> c.dst then begin
        esrc.(!i) <- c.src;
        edst.(!i) <- c.dst;
        ew.(!i) <- c.w;
        incr i
      end)
    g.conns;
  let head = Array.make (g.n + 1) 0 in
  for e = 0 to m - 1 do
    head.(esrc.(e) + 1) <- head.(esrc.(e) + 1) + 1
  done;
  for v = 0 to g.n - 1 do
    head.(v + 1) <- head.(v + 1) + head.(v)
  done;
  let eidx = Array.make (Int.max 1 m) 0 in
  let fill = Array.copy head in
  for e = 0 to m - 1 do
    eidx.(fill.(esrc.(e))) <- e;
    fill.(esrc.(e)) <- fill.(esrc.(e)) + 1
  done;
  (m, esrc, edst, ew, head, eidx)

let feas ?deadline ?init g ~period =
  Rar_obs.Trace.span "classic/feas" @@ fun () ->
  let n = g.n and delays = g.delays in
  let m, esrc, edst, ew, head, eidx = conn_csr g in
  let r =
    match init with
    | Some r0 ->
      if Array.length r0 <> n then
        invalid_arg "Classic.feas: init length mismatch";
      Array.copy r0
    | None -> Array.make n 0
  in
  let delta = Array.make n 0. in
  let indeg = Array.make n 0 in
  let queue = Array.make n 0 in
  let limit = Int.max 1 (n - 1) in
  (* Clock-period pass: fills [delta], returns the worst arrival. *)
  let cp () =
    Array.fill indeg 0 n 0;
    for e = 0 to m - 1 do
      if ew.(e) + r.(edst.(e)) - r.(esrc.(e)) = 0 then
        indeg.(edst.(e)) <- indeg.(edst.(e)) + 1
    done;
    for v = 0 to n - 1 do
      delta.(v) <- delays.(v)
    done;
    let tail = ref 0 in
    for v = 0 to n - 1 do
      if indeg.(v) = 0 then begin
        queue.(!tail) <- v;
        incr tail
      end
    done;
    (* Kahn's drain over the zero-weight retimed edges. *)
    let hd = ref 0 in
    while !hd < !tail do
      let x = queue.(!hd) in
      incr hd;
      for i = head.(x) to head.(x + 1) - 1 do
        let e = eidx.(i) in
        if ew.(e) + r.(edst.(e)) - r.(x) = 0 then begin
          let y = edst.(e) in
          let nd = delta.(x) +. delays.(y) in
          if nd > delta.(y) then delta.(y) <- nd;
          indeg.(y) <- indeg.(y) - 1;
          if indeg.(y) = 0 then begin
            queue.(!tail) <- y;
            incr tail
          end
        end
      done
    done;
    if !hd < n then
      invalid_arg "Classic.feas: zero-weight cycle under retiming";
    let worst = ref 0. in
    for v = 0 to n - 1 do
      if delta.(v) > !worst then worst := delta.(v)
    done;
    !worst
  in
  (* [since] counts iterations without improving the best worst-arrival
     seen: a probe that stalls for 100 rounds is declared
     infeasible without burning the full |V|-1 theory bound. The exit
     is heuristic (a true-feasible period can be given up on) but
     one-sided — every Some is genuinely feasible — so the callers'
     bisection still returns a legal, merely possibly non-minimal,
     retiming. *)
  let rec loop it best since =
    (match deadline with
    | Some d -> Rar_util.Deadline.force_check d ~phase:"feas"
    | None -> ());
    let worst = cp () in
    if worst <= period +. 1e-9 then begin
      let r0 = r.(0) in
      if r0 <> 0 then
        for v = 0 to n - 1 do
          r.(v) <- r.(v) - r0
        done;
      Some (r, worst)
    end
    else if it >= limit then None
    else begin
      let best, since =
        if worst < best -. 1e-12 then (worst, 0) else (best, since + 1)
      in
      if since >= 100 then None
      else begin
        for v = 0 to n - 1 do
          if delta.(v) > period +. 1e-9 then r.(v) <- r.(v) + 1
        done;
        loop (it + 1) best since
      end
    end
  in
  loop 0 infinity 0

let min_period_feas ?deadline g =
  let hi = ref (period_of g) in
  (* No retiming beats the heaviest single vertex. *)
  let lo = ref (Array.fold_left (fun a d -> Float.max a d) 0. g.delays) in
  let best_r = ref (Array.make g.n 0) and best_p = ref !hi in
  let k = ref 0 in
  while !k < 24 && !hi -. !lo > 1e-9 *. Float.max 1. !hi do
    incr k;
    let mid = 0.5 *. (!lo +. !hi) in
    (* Warm start: [!best_r] is legal (it is feasible at [!best_p]),
       and FEAS only ever pushes registers backwards from it, so each
       probe pays for the increments beyond the last success instead of
       re-deriving them from r = 0. *)
    match feas ?deadline ~init:!best_r g ~period:mid with
    | Some (r, achieved) ->
      best_r := r;
      best_p := achieved;
      (* [achieved] can undershoot the probe; tighten to it. *)
      hi := achieved
    | None -> lo := mid
  done;
  (!best_r, !best_p)

let retime_feas ?deadline g =
  try
    let r, _ = min_period_feas ?deadline g in
    let retimed = realize g r in
    let registers_after =
      Array.fold_left
        (fun acc v ->
          match Netlist.kind retimed v with
          | Netlist.Seq Netlist.Flop -> acc + 1
          | _ -> acc)
        0 (Netlist.seqs retimed)
    in
    let g' = of_netlist ~host_registers:g.host_registers ~lib:g.lib retimed in
    Ok
      {
        r;
        registers_before = g.registers_before;
        registers_after;
        achieved_period = period_of g';
        retimed;
      }
  with Rar_util.Deadline.Expired { elapsed; phase } ->
    Error (Error.Timeout { elapsed; phase })

let retime ?deadline ?on_fallback ?(engine = Difflp.Network_simplex) g
    ~period =
  if engine = Difflp.Closure then
    Error
      (Error.Invalid_input
         "Classic.retime: the closure engine requires binary retiming values")
  else begin
    let t = wd g in
    (* Variables: vertices plus a mirror per multi-fanout driver
       (grouped by physical source so sharing matches realization). *)
    let groups = Hashtbl.create 64 in
    List.iter
      (fun c ->
        let cur = Option.value ~default:[] (Hashtbl.find_opt groups c.phys_src) in
        Hashtbl.replace groups c.phys_src (c :: cur))
      g.conns;
    let n_groups = Hashtbl.length groups in
    let lp = Difflp.create ~n:(g.n + n_groups) in
    let host = 0 in
    let gi = ref g.n in
    Hashtbl.iter
      (fun _phys conns ->
        let m = !gi in
        incr gi;
        let k = float_of_int (List.length conns) in
        let wmax = List.fold_left (fun a c -> max a c.w) 0 conns in
        List.iter
          (fun c ->
            (* edge src -> dst, weight w, breadth 1/k *)
            Difflp.add_constraint lp ~u:c.src ~v:c.dst ~bound:c.w;
            Difflp.add_objective lp c.dst (1. /. k);
            Difflp.add_objective lp c.src (-1. /. k);
            (* mirror edge dst -> m, weight wmax - w *)
            Difflp.add_constraint lp ~u:c.dst ~v:m ~bound:(wmax - c.w);
            Difflp.add_objective lp m (1. /. k);
            Difflp.add_objective lp c.dst (-1. /. k))
          conns)
      groups;
    (* Period constraints, in the dense scan's emission order. *)
    Wd.iter_over_period t ~period (fun u v w ->
        Difflp.add_constraint lp ~u ~v ~bound:(w - 1));
    match Difflp.solve ?deadline ?on_fallback ~engine lp ~reference:host with
    | Error e -> Error (Error.Infeasible_lp { detail = e })
    | Ok r_all ->
      let r = Array.sub r_all 0 g.n in
      let retimed = realize g r in
      let registers_after =
        Array.fold_left
          (fun acc v ->
            match Netlist.kind retimed v with
            | Netlist.Seq Netlist.Flop -> acc + 1
            | _ -> acc)
          0 (Netlist.seqs retimed)
      in
      (* Measure the achieved period on the rebuilt netlist (the same
         environment-register convention applies). *)
      let g' = of_netlist ~host_registers:g.host_registers ~lib:g.lib retimed in
      Ok
        {
          r;
          registers_before = g.registers_before;
          registers_after;
          achieved_period = period_of g';
          retimed;
        }
  end
