let inf = max_int / 2

(* Queue-based Bellman–Ford with Tarjan's subtree disassembly: the
   tentative shortest-path forest (pred / child lists) is maintained
   explicitly, and when relaxing an arc (u, v) we tear down v's old
   subtree — if u turns up inside it, v is an ancestor of u and the
   improving arc closes a negative cycle, detected after a handful of
   passes instead of the O(n * m) work the plain enqueue-counting
   detector needs on infeasible instances.  Nodes torn out of the
   forest are skipped when popped (their labels are stale; any node
   whose distance still matters is strictly improved and re-enqueued
   when the relaxation wave from v reaches it again).  The Ok
   distances are the unique Bellman–Ford fixpoint of [init] over the
   arcs, so they are identical to what any relaxation order computes;
   the enqueue counter is kept as a termination backstop and reports
   the same boolean. *)
let m_relax = Rar_obs.Metrics.counter "spfa_relaxations"

let run ?deadline ~n ~arcs ~init () =
  Rar_obs.Trace.span "solver/spfa" @@ fun () ->
  let m = Array.length arcs in
  (* CSR adjacency *)
  let head = Array.make (n + 1) 0 in
  Array.iter (fun (u, _, _) -> head.(u + 1) <- head.(u + 1) + 1) arcs;
  for v = 1 to n do
    head.(v) <- head.(v) + head.(v - 1)
  done;
  let pos = Array.copy head in
  let adj_v = Array.make (max m 1) 0 in
  let adj_c = Array.make (max m 1) 0 in
  Array.iter
    (fun (u, v, c) ->
      let i = pos.(u) in
      pos.(u) <- i + 1;
      adj_v.(i) <- v;
      adj_c.(i) <- c)
    arcs;
  let dist = Array.copy init in
  (* Shortest-path forest: pred.(v) = -1 for roots, child lists as
     first-child / sibling links; in_forest.(v) marks live labels. *)
  let pred = Array.make n (-1) in
  let fch = Array.make n (-1) in
  let next_s = Array.make n (-1) in
  let prev_s = Array.make n (-1) in
  let in_forest = Array.make n false in
  let in_queue = Array.make n false in
  let passes = Array.make n 0 in
  let q = Queue.create () in
  for v = 0 to n - 1 do
    if dist.(v) < inf then begin
      in_forest.(v) <- true;
      Queue.add v q;
      in_queue.(v) <- true
    end
  done;
  let bad = ref None in
  let relax = ref 0 in
  (* Detach v from its parent's child list. *)
  let unlink v =
    let p = pred.(v) in
    if prev_s.(v) >= 0 then next_s.(prev_s.(v)) <- next_s.(v)
    else if p >= 0 then fch.(p) <- next_s.(v);
    if next_s.(v) >= 0 then prev_s.(next_s.(v)) <- prev_s.(v);
    prev_s.(v) <- -1;
    next_s.(v) <- -1
  in
  (* Tear down v's subtree; returns true iff [scanner] is inside it
     (i.e. v is an ancestor of the node doing the relaxing). *)
  let disassemble v scanner =
    let hit = ref false in
    let stack = ref [ v ] in
    while !stack <> [] do
      match !stack with
      | [] -> ()
      | w :: rest ->
        stack := rest;
        if w = scanner then hit := true;
        in_forest.(w) <- false;
        let c = ref fch.(w) in
        fch.(w) <- -1;
        while !c >= 0 do
          let nxt = next_s.(!c) in
          prev_s.(!c) <- -1;
          next_s.(!c) <- -1;
          stack := !c :: !stack;
          c := nxt
        done
    done;
    !hit
  in
  (* Publish once per run (also when the deadline expires mid-pass):
     the relaxation count depends only on the fixpoint computation, so
     the counter total is deterministic across pool sizes. *)
  Fun.protect
    ~finally:(fun () -> Rar_obs.Metrics.add m_relax !relax)
  @@ fun () ->
  (try
     while not (Queue.is_empty q) do
       (match deadline with
       | None -> ()
       | Some d -> Rar_util.Deadline.check d ~phase:"spfa");
       let u = Queue.pop q in
       in_queue.(u) <- false;
       (* Skip stale labels torn out of the forest since enqueue. *)
       if in_forest.(u) then
         for ai = head.(u) to head.(u + 1) - 1 do
           let v = adj_v.(ai) in
           let nd = dist.(u) + adj_c.(ai) in
           if nd < dist.(v) then begin
             incr relax;
             if in_forest.(v) then begin
               unlink v;
               if disassemble v u then begin
                 bad := Some v;
                 raise Exit
               end
             end;
             dist.(v) <- nd;
             pred.(v) <- u;
             in_forest.(v) <- true;
             (* attach v as first child of u *)
             next_s.(v) <- fch.(u);
             if fch.(u) >= 0 then prev_s.(fch.(u)) <- v;
             fch.(u) <- v;
             if not in_queue.(v) then begin
               passes.(v) <- passes.(v) + 1;
               if passes.(v) > n then begin
                 bad := Some v;
                 raise Exit
               end;
               Queue.add v q;
               in_queue.(v) <- true
             end
           end
         done
     done
   with Exit -> ());
  match !bad with
  | Some v -> Error (Printf.sprintf "negative cycle (through node %d)" v)
  | None -> Ok dist

let from_virtual_root ?deadline ~n ~arcs () =
  run ?deadline ~n ~arcs ~init:(Array.make n 0) ()

let m_warm = Rar_obs.Metrics.counter "spfa_warm_starts"

let from_init ?deadline ~n ~arcs ~init () =
  if Array.length init <> n then invalid_arg "Spfa.from_init: init length";
  Rar_obs.Metrics.incr m_warm;
  run ?deadline ~n ~arcs ~init ()
