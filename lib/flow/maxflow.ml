(* Dinic max-flow on flat arrays. Edges are added as pairs: forward
   edge [2i] and its residual twin [2i + 1], so [e lxor 1] is always
   the reverse of [e] and the tail of [e] is [head.(e lxor 1)]. [run]
   freezes the edge list into a CSR adjacency ([first] / [adj]) and
   works on unboxed [float array] residuals; the original capacities
   stay untouched in [cap] for the certificate. *)

let eps = 1e-9

let m_phases = Rar_obs.Metrics.counter "maxflow_phases"
let m_augment = Rar_obs.Metrics.counter "maxflow_augmentations"

type t = {
  n : int;
  mutable m : int;  (* forward edges added *)
  mutable head : int array;  (* per edge id: the node it points to *)
  mutable cap : float array;  (* per forward edge: original capacity *)
  (* Filled by [run]. *)
  mutable res : float array;  (* per edge id: residual capacity *)
  mutable first : int array;  (* CSR row starts, length n + 1 *)
  mutable adj : int array;  (* edge ids grouped by tail node *)
  mutable value : float;
  mutable ran : bool;
}

let create ?(edges = 16) ~n () =
  if n <= 0 then invalid_arg "Maxflow.create: n <= 0";
  let edges = Int.max 1 edges in
  {
    n;
    m = 0;
    head = Array.make (2 * edges) 0;
    cap = Array.make edges 0.;
    res = [||];
    first = [||];
    adj = [||];
    value = 0.;
    ran = false;
  }

let grow t =
  let size = 2 * Array.length t.cap in
  let extend a len z =
    let a' = Array.make len z in
    Array.blit a 0 a' 0 (Array.length a);
    a'
  in
  t.head <- extend t.head (2 * size) 0;
  t.cap <- extend t.cap size 0.

let add_edge t ~src ~dst ~cap =
  if t.ran then invalid_arg "Maxflow.add_edge: already ran";
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then
    invalid_arg "Maxflow.add_edge: node out of range";
  if not (cap >= 0.) then invalid_arg "Maxflow.add_edge: negative capacity";
  if t.m = Array.length t.cap then grow t;
  t.head.(2 * t.m) <- dst;
  t.head.((2 * t.m) + 1) <- src;
  t.cap.(t.m) <- cap;
  t.m <- t.m + 1

(* Counting sort of the 2m edge ids by tail node; within a row, ids
   keep insertion order. *)
let freeze t =
  let m2 = 2 * t.m in
  let head = t.head and res = Array.make m2 0. in
  let first = Array.make (t.n + 1) 0 in
  for e = 0 to m2 - 1 do
    first.(head.(e) + 1) <- first.(head.(e) + 1) + 1
  done;
  for i = 0 to t.m - 1 do
    res.(2 * i) <- t.cap.(i)
  done;
  for v = 0 to t.n - 1 do
    first.(v + 1) <- first.(v + 1) + first.(v)
  done;
  let fill = Array.sub first 0 t.n in
  let adj = Array.make m2 0 in
  for e = 0 to m2 - 1 do
    (* tail of [e] is the head of its twin *)
    let u = head.(e lxor 1) in
    adj.(fill.(u)) <- e;
    fill.(u) <- fill.(u) + 1
  done;
  t.res <- res;
  t.first <- first;
  t.adj <- adj

let check_node t v what =
  if v < 0 || v >= t.n then
    invalid_arg (Printf.sprintf "Maxflow.%s: node out of range" what)

let run ?deadline t ~source ~sink =
  if t.ran then invalid_arg "Maxflow.run: already ran";
  check_node t source "run";
  check_node t sink "run";
  if source = sink then invalid_arg "Maxflow.run: source = sink";
  t.ran <- true;
  freeze t;
  let n = t.n in
  let head = t.head and res = t.res and first = t.first and adj = t.adj in
  let level = Array.make n (-1) in
  let queue = Array.make n 0 in
  let it = Array.make n 0 in
  (* DFS path as edge ids; a simple path has at most n - 1 edges. *)
  let path = Array.make n 0 in
  let phases = ref 0 and augments = ref 0 in
  let tick () =
    match deadline with
    | None -> ()
    | Some d -> Rar_util.Deadline.check d ~phase:"maxflow"
  in
  let bfs () =
    Array.fill level 0 n (-1);
    level.(source) <- 0;
    queue.(0) <- source;
    let hd = ref 0 and tl = ref 1 in
    while !hd < !tl do
      tick ();
      let u = queue.(!hd) in
      incr hd;
      let lu = level.(u) + 1 in
      for p = first.(u) to first.(u + 1) - 1 do
        let e = adj.(p) in
        let v = head.(e) in
        if level.(v) < 0 && res.(e) > eps then begin
          level.(v) <- lu;
          queue.(!tl) <- v;
          incr tl
        end
      done
    done;
    level.(sink) >= 0
  in
  (* One blocking flow, iteratively: advance along admissible edges
     (residual > eps, level + 1), augment on reaching the sink and
     retreat to the tail of the first saturated edge, or retreat one
     edge from a dead end. Current-arc pointers make every edge
     inspected O(1) times per retreat, as in the recursive textbook
     version, without using the OCaml stack. *)
  let blocking () =
    Array.blit first 0 it 0 n;
    let total = ref 0. in
    let depth = ref 0 and u = ref source and stop = ref false in
    while not !stop do
      tick ();
      if !u = sink then begin
        let d = !depth in
        let b = ref infinity in
        for k = 0 to d - 1 do
          let r = res.(path.(k)) in
          if r < !b then b := r
        done;
        let b = !b in
        let cut = ref (-1) in
        for k = 0 to d - 1 do
          let e = path.(k) in
          res.(e) <- res.(e) -. b;
          res.(e lxor 1) <- res.(e lxor 1) +. b;
          if !cut < 0 && res.(e) <= eps then cut := k
        done;
        total := !total +. b;
        incr augments;
        (* the bottleneck edge is saturated, so [cut] is set *)
        let k = if !cut < 0 then 0 else !cut in
        depth := k;
        u := if k = 0 then source else head.(path.(k - 1))
      end
      else begin
        let x = !u in
        let stop_at = first.(x + 1) and lx = level.(x) + 1 in
        let p = ref it.(x) and next = ref (-1) in
        while !next < 0 && !p < stop_at do
          let e = adj.(!p) in
          if res.(e) > eps && level.(head.(e)) = lx then next := e
          else incr p
        done;
        it.(x) <- !p;
        if !next >= 0 then begin
          path.(!depth) <- !next;
          incr depth;
          u := head.(!next)
        end
        else if x = source then stop := true
        else begin
          (* dead end: no admissible edge leaves [x] for the rest of
             the phase; step back and skip the edge that led here *)
          level.(x) <- -1;
          decr depth;
          let y = head.(path.(!depth) lxor 1) in
          it.(y) <- it.(y) + 1;
          u := y
        end
      end
    done;
    !total
  in
  Fun.protect
    ~finally:(fun () ->
      Rar_obs.Metrics.add m_phases !phases;
      Rar_obs.Metrics.add m_augment !augments)
  @@ fun () ->
  let total = ref 0. in
  while bfs () do
    incr phases;
    total := !total +. blocking ()
  done;
  t.value <- !total;
  !total

let min_cut_source_side t ~source =
  if not t.ran then invalid_arg "Maxflow.min_cut_source_side: run first";
  check_node t source "min_cut_source_side";
  let seen = Array.make t.n false in
  let stack = Array.make t.n 0 in
  stack.(0) <- source;
  seen.(source) <- true;
  let sp = ref 1 in
  while !sp > 0 do
    decr sp;
    let u = stack.(!sp) in
    for p = t.first.(u) to t.first.(u + 1) - 1 do
      let e = t.adj.(p) in
      let v = t.head.(e) in
      if (not seen.(v)) && t.res.(e) > eps then begin
        seen.(v) <- true;
        stack.(!sp) <- v;
        incr sp
      end
    done
  done;
  seen

let certify t ~source ~sink ~side =
  if not t.ran then invalid_arg "Maxflow.certify: run first";
  if Array.length side <> t.n then invalid_arg "Maxflow.certify: side length";
  let tol x = 1e-9 *. Float.max 1. (Float.abs x) in
  let net = Array.make t.n 0. in
  let bad = ref None in
  let cut = ref 0. in
  for i = 0 to t.m - 1 do
    (* flow on forward edge [2i] = residual on its twin *)
    let f = t.res.((2 * i) + 1) and c = t.cap.(i) in
    if !bad = None && (f < -.tol c || f > c +. tol c) then
      bad := Some (Printf.sprintf "edge %d carries %g outside [0, %g]" i f c);
    let s = t.head.((2 * i) + 1) and d = t.head.(2 * i) in
    net.(s) <- net.(s) -. f;
    net.(d) <- net.(d) +. f;
    if side.(s) && not side.(d) then cut := !cut +. c
  done;
  for v = 0 to t.n - 1 do
    if !bad = None && v <> source && v <> sink
       && Float.abs net.(v) > tol t.value
    then
      bad :=
        Some (Printf.sprintf "conservation fails at node %d (%g)" v net.(v))
  done;
  match !bad with
  | Some msg -> Error msg
  | None ->
    if not side.(source) || side.(sink) then
      Error "cut does not separate source from sink"
    else if Float.abs (net.(sink) -. t.value) > tol t.value then
      Error
        (Printf.sprintf "sink inflow %g <> flow value %g" net.(sink) t.value)
    else if Float.abs (!cut -. t.value) > tol t.value then
      Error (Printf.sprintf "cut capacity %g <> flow value %g" !cut t.value)
    else Ok ()
