type solution = {
  flow : float array;
  potentials : int array;
  objective : float;
  pivots : int;
}

type error =
  | Unbalanced
  | Unbounded
  | Infeasible
  | Pivot_limit of int

let error_to_string = function
  | Unbalanced -> "Netsimplex.solve: total demand is not zero"
  | Unbounded -> "Netsimplex.solve: unbounded (negative cycle)"
  | Infeasible -> "Netsimplex.solve: demands cannot be routed"
  | Pivot_limit k ->
    Printf.sprintf "Netsimplex.solve: pivot limit %d exceeded (possible cycling)"
      k

type pricing = Dantzig | Block

let eps = 1e-9

let m_pivots = Rar_obs.Metrics.counter "netsimplex_pivots"
let m_block_hits = Rar_obs.Metrics.counter "netsimplex_block_hits"
let m_cycle_arcs = Rar_obs.Metrics.counter "netsimplex_cycle_arcs"
let m_shift_nodes = Rar_obs.Metrics.counter "netsimplex_shift_nodes"

exception Fail of error

let solve ?deadline ?max_pivots ?(pricing = Block) p =
  Rar_obs.Trace.span "solver/network-simplex" @@ fun () ->
  let n = Problem.node_count p in
  let m = Problem.arc_count p in
  let max_pivots =
    match max_pivots with Some k -> k | None -> 200 * max 64 m
  in
  if Float.abs (Problem.total_demand p) > 1e-6 then Error Unbalanced
  else begin
    let root = n in
    let nn = n + 1 in
    let cmax =
      let c = ref 1 in
      Problem.iter_arcs p (fun _ a -> c := max !c (abs a.Problem.cost));
      !c
    in
    let big_m = (nn + 1) * (cmax + 1) in
    let total_arcs = m + n in
    (* Arc storage as parallel arrays (struct-of-arrays): pricing
       sweeps and pivot walks probe arcs in random order, and unboxed
       rows cost one cache line each instead of a record-pointer chase
       per probe. [axor] caches [src lxor dst], so a walker reads an
       arc's far endpoint with one load and one xor. *)
    let asrc = Array.make total_arcs 0 in
    let adst = Array.make total_arcs 0 in
    let acost = Array.make total_arcs 0 in
    let axor = Array.make total_arcs 0 in
    let aflow = Array.make total_arcs 0. in
    let intree = Bytes.make total_arcs '\000' in
    Problem.iter_arcs p (fun i a ->
        asrc.(i) <- a.Problem.src;
        adst.(i) <- a.Problem.dst;
        acost.(i) <- a.Problem.cost;
        axor.(i) <- a.Problem.src lxor a.Problem.dst);
    (* Artificial star arcs, all in the initial tree. *)
    for v = 0 to n - 1 do
      let d = Problem.demand p v in
      let ai = m + v in
      if d >= 0. then begin
        asrc.(ai) <- root;
        adst.(ai) <- v;
        aflow.(ai) <- d
      end
      else begin
        asrc.(ai) <- v;
        adst.(ai) <- root;
        aflow.(ai) <- -.d
      end;
      acost.(ai) <- big_m;
      axor.(ai) <- root lxor v;
      Bytes.set intree ai '\001'
    done;
    (* Tree structure. *)
    let parent = Array.make nn (-1) in
    let parent_arc = Array.make nn (-1) in
    let pi = Array.make nn 0 in
    (* Tree adjacency as swap-remove arrays: [adj.(v)] holds the tree
       arc ids at [v] in positions [0 .. adj_len.(v) - 1], and each
       tree arc remembers its position at both endpoints, so the pivot
       exchange is O(1) instead of an O(degree) list filter — the root
       starts with degree n, so filtering there was O(n) per early
       pivot. *)
    let adj = Array.make nn [||] in
    let adj_len = Array.make nn 0 in
    let pos_src = Array.make total_arcs (-1) in
    let pos_dst = Array.make total_arcs (-1) in
    let adj_push v ai =
      let len = adj_len.(v) in
      let row = adj.(v) in
      let cap = Array.length row in
      if len = cap then begin
        let row' = Array.make (Int.max 4 (2 * cap)) (-1) in
        Array.blit row 0 row' 0 len;
        adj.(v) <- row'
      end;
      adj.(v).(len) <- ai;
      if asrc.(ai) = v then pos_src.(ai) <- len else pos_dst.(ai) <- len;
      adj_len.(v) <- len + 1
    in
    let adj_remove v ai =
      let p = if asrc.(ai) = v then pos_src.(ai) else pos_dst.(ai) in
      let last = adj_len.(v) - 1 in
      let aj = adj.(v).(last) in
      adj.(v).(p) <- aj;
      if asrc.(aj) = v then pos_src.(aj) <- p else pos_dst.(aj) <- p;
      adj_len.(v) <- last
    in
    for v = 0 to n - 1 do
      let ai = m + v in
      parent.(v) <- root;
      parent_arc.(v) <- ai;
      pi.(v) <- (if asrc.(ai) = root then big_m else -big_m);
      adj_push v ai;
      adj_push root ai
    done;
    (* Pricing: most-negative reduced cost in a half-open arc range,
       lowest arc index on ties; [(0, -1)] when the range is clean. *)
    let price_range lo hi =
      let best_rc = ref 0 and best = ref (-1) in
      for i = lo to hi - 1 do
        if Bytes.unsafe_get intree i = '\000' then begin
          let rc = acost.(i) + pi.(asrc.(i)) - pi.(adst.(i)) in
          if rc < !best_rc then begin
            best_rc := rc;
            best := i
          end
        end
      done;
      (!best_rc, !best)
    in
    (* Rotating pricing blocks. A pivot first scans only the current
       block; a full sweep over every arc runs only when the block is
       dry. Both keep the strictly most-negative reduced cost, so ties
       resolve to the lowest arc index. *)
    let block_size = Int.max 64 ((total_arcs + 63) / 64) in
    let price_block b =
      let lo = b * block_size in
      price_range lo (Int.min total_arcs (lo + block_size))
    in
    let full_sweep () = snd (price_range 0 total_arcs) in
    let cur_block = ref 0 in
    let block_hits = ref 0 in
    let cycle_arcs = ref 0 in
    let shift_nodes = ref 0 in
    let entering_arc () =
      match pricing with
      | Dantzig -> full_sweep ()
      | Block ->
        let _, i = price_block !cur_block in
        if i >= 0 then begin
          incr block_hits;
          i
        end
        else begin
          let i = full_sweep () in
          if i >= 0 then cur_block := i / block_size;
          i
        end
    in
    let pivots = ref 0 in
    (* Scratch for the pivot walks, allocated once per solve: [seen]
       stamps the LCA climb; [qw]/[qz] are the per-side scan queues
       (node plus the tree arc it was discovered through — in a tree,
       skipping the incoming arc is all the dedup a walk needs). *)
    let seen = Array.make nn 0 in
    let stamp = ref 0 in
    let qw = Array.make nn 0 in
    let qwa = Array.make nn 0 in
    (* Walk the tree component containing [start] after removing
       [cut_arc], adding [delta] to each visited node's potential as
       it is discovered (fused: no second scatter pass over the
       visited set). Each queue entry remembers the tree arc it was
       discovered through, which in a tree is all the dedup a walk
       needs — no visited marks, so one fewer random access per node.
       Returns the component size, or, when the queue would exceed
       [budget], stops and returns [-tail] so the caller can undo the
       [tail] potential updates already applied (integer arithmetic,
       so the undo is exact). *)
    let shift_component start cut_arc budget delta =
      qw.(0) <- start;
      qwa.(0) <- cut_arc;
      pi.(start) <- pi.(start) + delta;
      let tail = ref 1 and hd = ref 0 in
      let ok = ref true in
      while !ok && !hd < !tail do
        let c = Array.unsafe_get qw !hd in
        let from = Array.unsafe_get qwa !hd in
        incr hd;
        let row = adj.(c) in
        let len = adj_len.(c) in
        let k = ref 0 in
        while !ok && !k < len do
          let ai = Array.unsafe_get row !k in
          incr k;
          if ai <> cut_arc && ai <> from then begin
            if !tail >= budget then ok := false
            else begin
              let o = Array.unsafe_get axor ai lxor c in
              Array.unsafe_set qw !tail o;
              Array.unsafe_set qwa !tail ai;
              Array.unsafe_set pi o (Array.unsafe_get pi o + delta);
              incr tail
            end
          end
        done
      done;
      if !ok then !tail else - !tail
    in
    (* Publish the counters once per solve — also when the deadline
       expires mid-pivot — so the metric totals stay deterministic
       across pool sizes without atomic traffic in the pivot loop. *)
    Fun.protect
      ~finally:(fun () ->
        Rar_obs.Metrics.add m_pivots !pivots;
        Rar_obs.Metrics.add m_block_hits !block_hits;
        Rar_obs.Metrics.add m_cycle_arcs !cycle_arcs;
        Rar_obs.Metrics.add m_shift_nodes !shift_nodes)
    @@ fun () ->
    (try
       let improving = ref true in
       while !improving do
         let entering = entering_arc () in
         if entering < 0 then improving := false
         else begin
           incr pivots;
           if !pivots > max_pivots then raise (Fail (Pivot_limit max_pivots));
           (match deadline with
           | None -> ()
           | Some d -> Rar_util.Deadline.check d ~phase:"netsimplex");
           let u = asrc.(entering) and v = adst.(entering) in
           (* LCA of the endpoints by alternate climbing with stamps
              (no depth array to maintain: the shallower climb
              overshoots the LCA by at most the depth difference, so
              the walk stays O(cycle)). *)
           incr stamp;
           let s = !stamp in
           seen.(u) <- s;
           seen.(v) <- s;
           let lca = ref (-1) in
           let x = ref u and y = ref v in
           while !lca < 0 do
             if !x >= 0 then begin
               x := parent.(!x);
               if !x >= 0 then
                 if seen.(!x) = s then lca := !x else seen.(!x) <- s
             end;
             if !lca < 0 && !y >= 0 then begin
               y := parent.(!y);
               if !y >= 0 then
                 if seen.(!y) = s then lca := !y else seen.(!y) <- s
             end
           done;
           let lca = !lca in
           (* Both cycle halves as (arc, direction), direction = true
              iff cycle flow (oriented u->v through e, then
              v ~> lca ~> u) increases the arc's flow. *)
           let u_path = ref [] and v_path = ref [] in
           let x = ref u in
           while !x <> lca do
             let ai = parent_arc.(!x) in
             (* u-side: cycle direction is parent -> x (downward) *)
             u_path := (ai, adst.(ai) = !x) :: !u_path;
             x := parent.(!x)
           done;
           let y = ref v in
           while !y <> lca do
             let ai = parent_arc.(!y) in
             (* v-side: cycle direction is y -> parent (upward) *)
             v_path := (ai, asrc.(ai) = !y) :: !v_path;
             y := parent.(!y)
           done;
           (* direction=true means flow increases; false means decreases. *)
           let cycle = !u_path @ !v_path in
           cycle_arcs := !cycle_arcs + List.length cycle;
           let theta = ref infinity in
           let leaving = ref (-1) in
           List.iter
             (fun (ai, increases) ->
               if not increases then
                 if aflow.(ai) < !theta -. eps then begin
                   theta := aflow.(ai);
                   leaving := ai
                 end)
             cycle;
           if !leaving < 0 then raise (Fail Unbounded);
           let theta = if !theta = infinity then 0. else !theta in
           aflow.(entering) <- aflow.(entering) +. theta;
           List.iter
             (fun (ai, increases) ->
               let f =
                 if increases then aflow.(ai) +. theta else aflow.(ai) -. theta
               in
               aflow.(ai) <- (if f < 0. then 0. else f))
             cycle;
           (* Exchange leaving for entering in the tree. *)
           let lv = !leaving in
           let child_end =
             (* deeper endpoint of the leaving arc *)
             if parent_arc.(asrc.(lv)) = lv then asrc.(lv) else adst.(lv)
           in
           Bytes.set intree lv '\000';
           Bytes.set intree entering '\001';
           adj_remove asrc.(lv) lv;
           adj_remove adst.(lv) lv;
           adj_push u entering;
           adj_push v entering;
           (* The leaving arc lies on exactly one cycle half; the
              entering endpoint on that half is inside the detached
              component. *)
           let w =
             if List.exists (fun (ai, _) -> ai = lv) !u_path then u else v
           in
           let z = if w = u then v else u in
           (* Re-root the detached component at [w]: only parents on
              the w -> child_end path flip, every other node keeps its
              parent. *)
           let op = parent.(w) and oa = parent_arc.(w) in
           parent.(w) <- z;
           parent_arc.(w) <- entering;
           if w <> child_end then begin
             let prev = ref w and cur = ref op and cur_arc = ref oa in
             let flipping = ref true in
             while !flipping do
               let next = parent.(!cur) and next_arc = parent_arc.(!cur) in
               parent.(!cur) <- !prev;
               parent_arc.(!cur) <- !cur_arc;
               if !cur = child_end then flipping := false
               else begin
                 prev := !cur;
                 cur := next;
                 cur_arc := next_arc
               end
             done
           end;
           (* Potentials: every node in the detached component shifts
              by the entering arc's reduced cost (sign fixed by which
              endpoint detached) — equivalently, the attached component
              shifts the opposite way, since only potential differences
              matter (callers normalise). The concurrent walk settles
              on a complete small side, so a pivot costs
              O(cycle + min(|T|, |V| - |T|)) rather than O(|V|). *)
           let delta =
             (if asrc.(entering) = z then pi.(z) + acost.(entering)
              else pi.(z) - acost.(entering))
             - pi.(w)
           in
           let count = shift_component w entering (nn / 2) delta in
           if count >= 0 then shift_nodes := !shift_nodes + count
           else begin
             (* The detached side exceeded half the tree: undo its
                partial shift and walk the (strictly smaller) attached
                side the opposite way instead. *)
             for i = 0 to -count - 1 do
               let v = Array.unsafe_get qw i in
               Array.unsafe_set pi v (Array.unsafe_get pi v - delta)
             done;
             let count = shift_component z entering nn (-delta) in
             shift_nodes := !shift_nodes + count
           end
         end
       done;
       (* Optimal basis reached; check artificial arcs are drained. *)
       for v = 0 to n - 1 do
         if aflow.(m + v) > 1e-6 then raise (Fail Infeasible)
       done;
       let flow = Array.sub aflow 0 m in
       let objective = ref 0. in
       for i = 0 to m - 1 do
         objective := !objective +. (float_of_int acost.(i) *. flow.(i))
       done;
       Ok
         {
           flow;
           potentials = Array.sub pi 0 n;
           objective = !objective;
           pivots = !pivots;
         }
     with Fail err -> Error err)
  end
