(* Sparse all-pairs W/D kernel for Leiserson–Saxe retiming.

   The dense formulation (Eq. 1-2) runs a lexicographic Floyd–Warshall
   in O(V^3); this module computes the same matrices Johnson-style in
   O(V (E log V + R log R)) where R is the per-source reachable set:

   - per source, a Dijkstra over the sparse deduplicated edge set with
     the register count [w] as the (non-negative integer) length gives
     W(u, .);
   - D(u, .) is then a longest-delay DP over the *tight* subgraph
     (edges with [W(u,x) + w(e) = W(u,y)]). Every minimum-register
     path uses only tight edges and every tight path is
     register-minimal, so the maximum path delay over tight edges is
     exactly D. The tight subgraph is acyclic — a tight cycle would
     be a zero-weight cycle, which the graph construction rejects —
     and sorting the reachable set by (W, zero-weight topological
     rank) is a topological order of it, so one forward relaxation
     pass suffices.

   Sources fan out across the {!Rar_util.Pool} domain pool; the
   per-source result rows are merged by index so the output is
   identical for every pool size. *)

module Pool = Rar_util.Pool

let big = max_int / 4
let eps = 1e-9

type t = {
  n : int;
  reach : int array array;
      (* per source u: reachable vertices, ascending, including u *)
  w : int array array;   (* parallel to [reach.(u)] *)
  d : float array array; (* parallel to [reach.(u)] *)
}

(* Deduplicated CSR adjacency, out-edges sorted by destination.

   Each edge is packed as [(u << 42) | (v << 21) | w] into one int, the
   packed array is sorted with a monomorphic int compare, and one
   ascending pass emits the CSR rows: the sort groups parallel edges by
   (u, v) with the minimum w first, which is exactly the dedup rule
   (the delay tie-break of the dense initialisation is vacuous —
   parallel edges between the same pair share endpoint delays).
   Self-loops are ignored, as in the dense initialisation. The packing
   bounds n and every weight by 2^21 (≈ 2M) — far above the 10^6-gate
   target, and weights are register counts so they cannot exceed the
   node count. *)
let pack_limit = 1 lsl 21

let csr ~n edges =
  if n >= pack_limit then invalid_arg "Wd.build: more than 2^21 vertices";
  let m_all = List.length edges in
  let packed = Array.make (Int.max 1 m_all) 0 in
  let k = ref 0 in
  List.iter
    (fun (u, v, w) ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg "Wd.build: vertex out of range";
      if w < 0 then invalid_arg "Wd.build: negative edge weight";
      if u <> v then begin
        if w >= pack_limit then invalid_arg "Wd.build: weight >= 2^21";
        packed.(!k) <- (u lsl 42) lor (v lsl 21) lor w;
        incr k
      end)
    edges;
  let m_all = !k in
  let packed = Array.sub packed 0 m_all in
  Array.sort (fun (a : int) b -> compare a b) packed;
  (* Count the distinct (u, v) pairs, then fill. *)
  let mask_uv = lnot (pack_limit - 1) in
  let deg = Array.make n 0 in
  let m = ref 0 in
  for i = 0 to m_all - 1 do
    if i = 0 || packed.(i) land mask_uv <> packed.(i - 1) land mask_uv then begin
      deg.(packed.(i) lsr 42) <- deg.(packed.(i) lsr 42) + 1;
      incr m
    end
  done;
  let head = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    head.(v + 1) <- head.(v) + deg.(v)
  done;
  let adj_v = Array.make (Int.max 1 !m) 0 in
  let adj_w = Array.make (Int.max 1 !m) 0 in
  let pos = ref 0 in
  for i = 0 to m_all - 1 do
    if i = 0 || packed.(i) land mask_uv <> packed.(i - 1) land mask_uv then begin
      adj_v.(!pos) <- (packed.(i) lsr 21) land (pack_limit - 1);
      adj_w.(!pos) <- packed.(i) land (pack_limit - 1);
      incr pos
    end
  done;
  (head, adj_v, adj_w)

(* Topological rank of the zero-weight subgraph (Kahn, smallest vertex
   first). Raises if a zero-weight cycle survives — the caller is
   expected to have rejected those. *)
let zero_rank ~n (head, adj_v, adj_w) =
  let indeg = Array.make n 0 in
  for u = 0 to n - 1 do
    for i = head.(u) to head.(u + 1) - 1 do
      if adj_w.(i) = 0 then indeg.(adj_v.(i)) <- indeg.(adj_v.(i)) + 1
    done
  done;
  let rank = Array.make n 0 in
  let module H = Set.Make (Int) in
  let ready = ref H.empty in
  for v = 0 to n - 1 do
    if indeg.(v) = 0 then ready := H.add v !ready
  done;
  let next = ref 0 in
  while not (H.is_empty !ready) do
    let v = H.min_elt !ready in
    ready := H.remove v !ready;
    rank.(v) <- !next;
    incr next;
    for i = head.(v) to head.(v + 1) - 1 do
      if adj_w.(i) = 0 then begin
        let y = adj_v.(i) in
        indeg.(y) <- indeg.(y) - 1;
        if indeg.(y) = 0 then ready := H.add y !ready
      end
    done
  done;
  if !next < n then invalid_arg "Wd.build: zero-weight cycle";
  rank

(* One source: Dijkstra on w, then the tight-DAG longest-delay pass.
   Register weights are small non-negative ints, so the priority queue
   is a bucket (dial) queue indexed by tentative distance: O(reach +
   max distance) per source, no float keys, no heap sift. The settled
   set and distances are those of any Dijkstra, so the output rows do
   not depend on the queue discipline. *)
let from_source ~n ~delays ~rank (head, adj_v, adj_w) u =
  let dist_w = Array.make n big in
  let settled = Array.make n false in
  dist_w.(u) <- 0;
  let buckets = ref (Array.make 16 []) in
  let maxd = ref 0 in
  let push d x =
    (if d >= Array.length !buckets then begin
       let nb = Array.make (Int.max (d + 1) (2 * Array.length !buckets)) [] in
       Array.blit !buckets 0 nb 0 (Array.length !buckets);
       buckets := nb
     end);
    !buckets.(d) <- x :: !buckets.(d);
    if d > !maxd then maxd := d
  in
  push 0 u;
  let cur = ref 0 in
  while !cur <= !maxd do
    match !buckets.(!cur) with
    | [] -> incr cur
    | x :: rest ->
      !buckets.(!cur) <- rest;
      (* An entry is stale when a shorter path settled x already (dials
         keep superseded entries instead of decreasing keys). *)
      if not settled.(x) && dist_w.(x) = !cur then begin
        settled.(x) <- true;
        for i = head.(x) to head.(x + 1) - 1 do
          let y = adj_v.(i) in
          let nw = !cur + adj_w.(i) in
          if nw < dist_w.(y) then begin
            dist_w.(y) <- nw;
            push nw y
          end
        done
      end
  done;
  let reach = ref [] in
  for v = n - 1 downto 0 do
    if settled.(v) then reach := v :: !reach
  done;
  let reach = Array.of_list !reach in
  (* Topological order of the tight DAG: (W ascending, zero-rank
     ascending). A tight edge either strictly increases W or is a
     zero-weight edge, which strictly increases the zero-rank. *)
  let order = Array.copy reach in
  Array.sort
    (fun (a : int) b ->
      let c = compare dist_w.(a) dist_w.(b) in
      if c <> 0 then c else compare rank.(a) rank.(b))
    order;
  let dist_d = Array.make n neg_infinity in
  dist_d.(u) <- delays.(u);
  Array.iter
    (fun x ->
      let dx = dist_d.(x) in
      for i = head.(x) to head.(x + 1) - 1 do
        let y = adj_v.(i) in
        if settled.(y) && dist_w.(x) + adj_w.(i) = dist_w.(y) then begin
          let nd = dx +. delays.(y) in
          if nd > dist_d.(y) then dist_d.(y) <- nd
        end
      done)
    order;
  let k = Array.length reach in
  let w_row = Array.make k 0 and d_row = Array.make k 0. in
  Array.iteri
    (fun i v ->
      w_row.(i) <- dist_w.(v);
      d_row.(i) <- dist_d.(v))
    reach;
  (reach, w_row, d_row)

let build ~n ~delays ~edges =
  Rar_obs.Trace.span "wd/build" @@ fun () ->
  if n <= 0 then invalid_arg "Wd.build: n <= 0";
  if Array.length delays <> n then invalid_arg "Wd.build: delays length";
  let adj = csr ~n edges in
  let rank = zero_rank ~n adj in
  let rows =
    Pool.map ~min_chunk:32
      (Array.init n (fun u -> u))
      (from_source ~n ~delays ~rank adj)
  in
  {
    n;
    reach = Array.map (fun (r, _, _) -> r) rows;
    w = Array.map (fun (_, w, _) -> w) rows;
    d = Array.map (fun (_, _, d) -> d) rows;
  }

let to_dense t =
  let w = Array.make_matrix t.n t.n big in
  let d = Array.make_matrix t.n t.n neg_infinity in
  for u = 0 to t.n - 1 do
    Array.iteri
      (fun i v ->
        w.(u).(v) <- t.w.(u).(i);
        d.(u).(v) <- t.d.(u).(i))
      t.reach.(u)
  done;
  (w, d)

let max_zero_weight_delay t =
  let worst = ref 0. in
  for u = 0 to t.n - 1 do
    let w_row = t.w.(u) and d_row = t.d.(u) in
    for i = 0 to Array.length w_row - 1 do
      if w_row.(i) = 0 && d_row.(i) > !worst then worst := d_row.(i)
    done
  done;
  !worst

let distinct_d_values t =
  let values = Hashtbl.create 64 in
  for u = 0 to t.n - 1 do
    Array.iter (fun d -> Hashtbl.replace values d ()) t.d.(u)
  done;
  let sorted =
    List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) values [])
  in
  Array.of_list sorted

let iter_over_period t ~period f =
  for u = 0 to t.n - 1 do
    let reach = t.reach.(u)
    and w_row = t.w.(u)
    and d_row = t.d.(u) in
    (* [reach] is ascending, so this emits pairs in exactly the order a
       dense row scan would. *)
    for i = 0 to Array.length reach - 1 do
      let v = reach.(i) in
      if v <> u && d_row.(i) > period +. eps then f u v w_row.(i)
    done
  done

(* The zero-register critical delay without building W/D at all: the
   longest endpoint-delay path through the zero-weight subgraph, which
   is exactly [max over u,v with W(u,v)=0 of D(u,v)] (a W=0 path is a
   path of zero-weight edges). One Kahn pass over the deduplicated CSR,
   O(V + E) — this is what period computation after a realise step
   needs, where the full matrices would be rebuilt only to read their
   zero-weight entries. *)
let max_zero_weight_delay_edges ~n ~delays ~edges =
  if n <= 0 then invalid_arg "Wd.max_zero_weight_delay_edges: n <= 0";
  if Array.length delays <> n then
    invalid_arg "Wd.max_zero_weight_delay_edges: delays length";
  let head, adj_v, adj_w = csr ~n edges in
  let indeg = Array.make n 0 in
  for u = 0 to n - 1 do
    for i = head.(u) to head.(u + 1) - 1 do
      if adj_w.(i) = 0 then indeg.(adj_v.(i)) <- indeg.(adj_v.(i)) + 1
    done
  done;
  (* best.(v): max total delay of a zero-weight path ending at v. *)
  let best = Array.make n neg_infinity in
  for v = 0 to n - 1 do
    best.(v) <- delays.(v)
  done;
  let queue = Array.make n 0 in
  let tail = ref 0 in
  for v = 0 to n - 1 do
    if indeg.(v) = 0 then begin
      queue.(!tail) <- v;
      incr tail
    end
  done;
  let hd = ref 0 in
  while !hd < !tail do
    let x = queue.(!hd) in
    incr hd;
    for i = head.(x) to head.(x + 1) - 1 do
      if adj_w.(i) = 0 then begin
        let y = adj_v.(i) in
        let nd = best.(x) +. delays.(y) in
        if nd > best.(y) then best.(y) <- nd;
        indeg.(y) <- indeg.(y) - 1;
        if indeg.(y) = 0 then begin
          queue.(!tail) <- y;
          incr tail
        end
      end
    done
  done;
  if !hd < n then
    invalid_arg "Wd.max_zero_weight_delay_edges: zero-weight cycle";
  let worst = ref 0. in
  for v = 0 to n - 1 do
    if best.(v) > !worst then worst := best.(v)
  done;
  !worst
