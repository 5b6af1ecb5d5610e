module Netlist = Rar_netlist.Netlist
module Cell_kind = Rar_netlist.Cell_kind
module Rng = Rar_util.Rng

(* Functional (zero-delay) cycle-accurate evaluation. Per cycle:

   sweep A — every sequential node pinned to its current state, gates
   and outputs evaluated in [topo_comb] order. The cycle's visible
   primary-output row and every flop/master next-state (the D value
   seen at the end of phase 1) come from this sweep.

   sweep B — flops/masters pinned to their *next* state, slave latches
   transparent (value = driver value), gates re-evaluated: the phase-2
   (and phase-3) portion of the cycle, during which the new master
   values ripple through the open slave chain. Slave next-states are
   read here. [topo_comb] orders a sequential node after its driver but
   may order gates *reading* a slave before it, so the sweep iterates
   to a fixpoint (bounded by the longest slave chain; converted
   netlists settle in one pass).

   For a pure flop netlist this reduces to the standard FF semantics
   q' = D(q, x), out = f(q, x); for a freshly converted design the
   slave therefore tracks exactly the flop it replaced, which is what
   {!equivalent} exploits. *)

let eval_gates net values =
  let c = Netlist.compact net in
  let head = c.Netlist.Compact.fanin_head and fin = c.Netlist.Compact.fanin in
  Array.iter
    (fun v ->
      match Netlist.kind net v with
      | Netlist.Gate { fn; _ } ->
        values.(v) <- Cell_kind.eval_at fn values fin head.(v) head.(v + 1)
      | Netlist.Output -> values.(v) <- values.(fin.(head.(v)))
      | Netlist.Input | Netlist.Seq _ -> ())
    c.Netlist.Compact.topo

let run net ~vectors =
  let inputs = Netlist.inputs net in
  let outputs = Netlist.outputs net in
  let seqs = Netlist.seqs net in
  let n = Netlist.node_count net in
  let c = Netlist.compact net in
  let head = c.Netlist.Compact.fanin_head and fin = c.Netlist.Compact.fanin in
  let n_pi = Array.length inputs in
  Array.iteri
    (fun t vec ->
      if Array.length vec <> n_pi then
        invalid_arg
          (Printf.sprintf "Cycle.run: vector %d has %d bits, expected %d" t
             (Array.length vec) n_pi))
    vectors;
  let state = Array.make n false in
  let values = Array.make n false in
  let has_slaves =
    Array.exists
      (fun v -> Netlist.kind net v = Netlist.Seq Netlist.Slave)
      seqs
  in
  Array.map
    (fun vec ->
      (* sweep A: state-pinned evaluation *)
      Array.iteri (fun i v -> values.(v) <- vec.(i)) inputs;
      Array.iter (fun v -> values.(v) <- state.(v)) seqs;
      eval_gates net values;
      let row = Array.map (fun v -> values.(v)) outputs in
      let next = Array.copy state in
      Array.iter
        (fun v ->
          match Netlist.kind net v with
          | Netlist.Seq (Netlist.Flop | Netlist.Master) ->
            next.(v) <- values.(fin.(head.(v)))
          | _ -> ())
        seqs;
      if has_slaves then begin
        (* sweep B: masters advanced, slaves transparent, to fixpoint *)
        Array.iteri (fun i v -> values.(v) <- vec.(i)) inputs;
        Array.iter
          (fun v ->
            match Netlist.kind net v with
            | Netlist.Seq (Netlist.Flop | Netlist.Master) ->
              values.(v) <- next.(v)
            | _ -> ())
          seqs;
        let changed = ref true in
        let passes = ref 0 in
        while !changed && !passes < 1 + Array.length seqs do
          changed := false;
          incr passes;
          Array.iter
            (fun v ->
              match Netlist.kind net v with
              | Netlist.Gate { fn; _ } ->
                let x =
                  Cell_kind.eval_at fn values fin head.(v) head.(v + 1)
                in
                if x <> values.(v) then begin
                  values.(v) <- x;
                  changed := true
                end
              | Netlist.Seq Netlist.Slave ->
                let x = values.(fin.(head.(v))) in
                if x <> values.(v) then begin
                  values.(v) <- x;
                  changed := true
                end
              | Netlist.Output | Netlist.Input
              | Netlist.Seq (Netlist.Flop | Netlist.Master) ->
                ())
            c.Netlist.Compact.topo
        done;
        Array.iter
          (fun v ->
            if Netlist.kind net v = Netlist.Seq Netlist.Slave then
              next.(v) <- values.(v))
          seqs
      end;
      Array.blit next 0 state 0 n;
      row)
    vectors

let random_vectors rng ~n_pi ~cycles =
  Array.init cycles (fun _ -> Array.init n_pi (fun _ -> Rng.bool rng))

let name_table net arr =
  let t = Hashtbl.create (Array.length arr) in
  Array.iteri (fun i v -> Hashtbl.replace t (Netlist.node_name net v) i) arr;
  t

(* Permutation p with p.(i) = index in [b_arr] of the node named like
   [a_arr.(i)]; None when the name sets differ. *)
let align what a a_arr b b_arr =
  if Array.length a_arr <> Array.length b_arr then
    Error
      (Printf.sprintf "netlists differ in %s count: %d vs %d" what
         (Array.length a_arr) (Array.length b_arr))
  else begin
    let tb = name_table b b_arr in
    let missing = ref None in
    let p =
      Array.map
        (fun v ->
          let name = Netlist.node_name a v in
          match Hashtbl.find_opt tb name with
          | Some j -> j
          | None ->
            if !missing = None then missing := Some name;
            -1)
        a_arr
    in
    match !missing with
    | Some name -> Error (Printf.sprintf "%s %S missing from %s" what name
                            (Netlist.name b))
    | None -> Ok p
  end

let equivalent ?(cycles = 256) ~seed a b =
  match
    ( align "input" a (Netlist.inputs a) b (Netlist.inputs b),
      align "output" a (Netlist.outputs a) b (Netlist.outputs b) )
  with
  | Error e, _ | _, Error e -> Error ("Cycle.equivalent: " ^ e)
  | Ok pi_perm, Ok po_perm -> (
    let rng = Rng.of_string seed in
    let n_pi = Array.length (Netlist.inputs a) in
    let vecs_a = random_vectors rng ~n_pi ~cycles in
    (* b reads the same stimulus, permuted into its own input order *)
    let vecs_b =
      Array.map
        (fun vec ->
          let w = Array.make n_pi false in
          Array.iteri (fun i j -> w.(j) <- vec.(i)) pi_perm;
          w)
        vecs_a
    in
    let ta = run a ~vectors:vecs_a in
    let tb = run b ~vectors:vecs_b in
    let fail = ref None in
    Array.iteri
      (fun t row ->
        if !fail = None then
          Array.iteri
            (fun i x ->
              if !fail = None && x <> tb.(t).(po_perm.(i)) then
                fail :=
                  Some
                    (Printf.sprintf
                       "Cycle.equivalent: cycle %d output %S: %b vs %b" t
                       (Netlist.node_name a (Netlist.outputs a).(i))
                       x
                       tb.(t).(po_perm.(i))))
            row)
      ta;
    match !fail with Some e -> Error e | None -> Ok cycles)
