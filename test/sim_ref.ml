(* Reference timing simulator (paper Table VIII): the per-cycle
   simulator as first written — every cycle re-derives each gate's
   worst-pin delays, an input hash table and a settle-to-fixpoint pass
   over [topo_comb], and evaluates gates through [Cell_kind.eval] on
   freshly allocated pin arrays. The sim tests check the compiled
   [Rar_sim.Sim] against it cycle for cycle and event for event. *)

module Netlist = Rar_netlist.Netlist
module Cell_kind = Rar_netlist.Cell_kind
module Liberty = Rar_liberty.Liberty
module Clocking = Rar_sta.Clocking
module Rng = Rar_util.Rng
module Sim = Rar_sim.Sim

(* [Rar_util.Heap] holds int payloads: the events wait in a side vector
   and the heap orders their indices. Pops keep the heap's tie order,
   which depends on the push order alone. *)
module Heap = struct
  module H = Rar_util.Heap
  module Vec = Rar_util.Vec

  type 'a t = { heap : H.t; events : 'a Vec.t }

  let create () = { heap = H.create (); events = Vec.create () }

  let add q t ev =
    H.add q.heap t (Vec.length q.events);
    Vec.add_last q.events ev

  let pop_min q =
    let h = q.heap in
    if h.H.size = 0 then None
    else begin
      let t = h.H.prio.(0) and i = h.H.items.(0) in
      H.remove_min h;
      Some (t, Vec.get q.events i)
    end
end

type event = Value of int * bool | Latch_wake of int

let eval_gate net values v =
  match Netlist.kind net v with
  | Netlist.Gate { fn; _ } ->
    let ins = Array.map (fun u -> values.(u)) (Netlist.fanins net v) in
    Cell_kind.eval fn ins
  | Netlist.Input | Netlist.Output | Netlist.Seq _ ->
    invalid_arg
      (Printf.sprintf "Sim.eval_gate: node %S is not a gate"
         (Netlist.node_name net v))

let run_cycle ?(on_event = fun ~time:_ ~node:_ ~value:_ -> ())
    (design : Sim.design) ~prev ~next =
  let net = design.Sim.staged in
  let lib = design.Sim.lib in
  let n = Netlist.node_count net in
  let inputs = Netlist.inputs net in
  if Array.length prev <> Array.length inputs || Array.length next <> Array.length inputs
  then invalid_arg "Sim.run_cycle: vector length mismatch";
  let latch = Liberty.latch lib in
  let open_t = Clocking.slave_open design.Sim.clocking in
  let close_t = Clocking.slave_close design.Sim.clocking in
  let launch = latch.Liberty.ck_to_q in
  (* Per-gate delays (triggering-pin agnostic: worst pin arc per output
     transition keeps the simulator simple and slightly conservative,
     matching the STA's worst-pin view). *)
  let delay_rise = Array.make n 0. and delay_fall = Array.make n 0. in
  for v = 0 to n - 1 do
    match Netlist.kind net v with
    | Netlist.Gate { fn; drive } ->
      let cell = Liberty.comb_cell lib fn ~drive in
      let load = Liberty.gate_load lib net v in
      let rise = ref 0. and fall = ref 0. in
      Array.iteri
        (fun pin _ ->
          let a = Liberty.pin_arc cell ~pin ~load in
          if a.Liberty.rise > !rise then rise := a.Liberty.rise;
          if a.Liberty.fall > !fall then fall := a.Liberty.fall)
        (Netlist.fanins net v);
      delay_rise.(v) <- !rise;
      delay_fall.(v) <- !fall
    | Netlist.Input | Netlist.Output | Netlist.Seq _ -> ()
  done;
  (* Settle the previous vector combinationally; latches transparent in
     the settled state (their last cycle ended with data through).
     [topo_comb] may order a latch *after* gates reading its output, so
     iterate the pass to a fixpoint (one extra pass per latch level —
     retimed stages have exactly one). *)
  let values = Array.make n false in
  let input_index = Hashtbl.create 16 in
  Array.iteri (fun i v -> Hashtbl.replace input_index v i) inputs;
  let settle_pass () =
    let changed = ref false in
    Array.iter
      (fun v ->
        let nv =
          match Netlist.kind net v with
          | Netlist.Input -> prev.(Hashtbl.find input_index v)
          | Netlist.Gate _ -> eval_gate net values v
          | Netlist.Output | Netlist.Seq _ ->
            values.((Netlist.fanins net v).(0))
        in
        if nv <> values.(v) then begin
          values.(v) <- nv;
          changed := true
        end)
      (Netlist.topo_comb net);
    !changed
  in
  let rec settle k =
    if k = 0 then
      invalid_arg "Sim.run_cycle: settle did not converge (latch loop?)"
    else if settle_pass () then settle (k - 1)
  in
  settle 8;
  let scheduled = Array.copy values in
  (* last value scheduled per node *)
  let capture = Array.make n neg_infinity in
  let late_slave = ref [] in
  let q : event Heap.t = Heap.create () in
  (* Slave latches wake at the opening edge to sample. *)
  Array.iter
    (fun v ->
      match Netlist.kind net v with
      | Netlist.Seq Netlist.Slave -> Heap.add q open_t (Latch_wake v)
      | _ -> ())
    (Netlist.seqs net);
  (* Launch the next vector. *)
  Array.iteri
    (fun i src ->
      if next.(i) <> values.(src) then begin
        scheduled.(src) <- next.(i);
        Heap.add q launch (Value (src, next.(i)))
      end)
    inputs;
  let schedule_gate t v =
    (* Evaluate against the *current* input values — transport-delay
       semantics. [scheduled] tracks the logically latest output so a
       gate is not re-scheduled when its evaluation hasn't changed.
       (Asymmetric rise/fall delays can reorder a glitch pair; the
       steady state is still the last evaluation, which is what the
       capture-time measurement needs.) *)
    let nv = eval_gate net values v in
    if nv <> scheduled.(v) then begin
      scheduled.(v) <- nv;
      let d = if nv then delay_rise.(v) else delay_fall.(v) in
      Heap.add q (t +. d) (Value (v, nv))
    end
  in
  let notify t u =
    Array.iter
      (fun w ->
        match Netlist.kind net w with
        | Netlist.Gate _ -> schedule_gate t w
        | Netlist.Output ->
          if values.(w) <> values.(u) then begin
            values.(w) <- values.(u);
            scheduled.(w) <- values.(u);
            capture.(w) <- Float.max capture.(w) t;
            on_event ~time:t ~node:w ~value:values.(u)
          end
        | Netlist.Seq Netlist.Slave ->
          if t < open_t then () (* sampled at the opening edge *)
          else if t <= close_t then begin
            if scheduled.(w) <> values.(u) then begin
              scheduled.(w) <- values.(u);
              Heap.add q (t +. latch.Liberty.d_to_q) (Value (w, values.(u)))
            end
          end
          else late_slave := w :: !late_slave
        | Netlist.Input | Netlist.Seq _ -> ())
      (Netlist.fanouts net u)
  in
  let rec drain () =
    match Heap.pop_min q with
    | None -> ()
    | Some (t, Latch_wake v) ->
      let u = (Netlist.fanins net v).(0) in
      (* sample the driver's settled value at opening *)
      if values.(u) <> values.(v) then begin
        scheduled.(v) <- values.(u);
        Heap.add q (t +. latch.Liberty.ck_to_q) (Value (v, values.(u)))
      end;
      drain ()
    | Some (t, Value (v, value)) ->
      if values.(v) <> value then begin
        values.(v) <- value;
        on_event ~time:t ~node:v ~value;
        notify t v
      end;
      drain ()
  in
  drain ();
  let period = Clocking.period design.Sim.clocking in
  let limit = Clocking.max_delay design.Sim.clocking in
  let errors = ref [] and silent = ref [] and late = ref [] in
  let captures = ref [] in
  let ed_set = Hashtbl.create (1 + List.length design.Sim.ed_sinks) in
  List.iter (fun s -> Hashtbl.replace ed_set s ()) design.Sim.ed_sinks;
  Array.iter
    (fun s ->
      let t = capture.(s) in
      if t > neg_infinity then captures := (s, t) :: !captures;
      if t > limit +. 1e-9 then late := s :: !late
      else if t > period +. 1e-9 then
        if Hashtbl.mem ed_set s then errors := s :: !errors
        else silent := s :: !silent)
    (Netlist.outputs net);
  { Sim.errors = !errors; silent = !silent; late = !late;
    late_at_slave = List.sort_uniq compare !late_slave;
    capture_times = !captures }

let error_rate ?(cycles = 500) ~seed (design : Sim.design) =
  let rng = Rng.of_string seed in
  let n_in = Array.length (Netlist.inputs design.Sim.staged) in
  let vec () = Array.init n_in (fun _ -> Rng.bool rng) in
  let prev = ref (vec ()) in
  let error_cycles = ref 0 and error_events = ref 0 and silent_cycles = ref 0 in
  for _ = 1 to cycles do
    let next = vec () in
    let r = run_cycle design ~prev:!prev ~next in
    if r.Sim.errors <> [] then incr error_cycles;
    error_events := !error_events + List.length r.Sim.errors;
    if r.Sim.silent <> [] then incr silent_cycles;
    prev := next
  done;
  {
    Sim.cycles;
    error_cycles = !error_cycles;
    error_events = !error_events;
    silent_cycles = !silent_cycles;
    error_rate = 100. *. float_of_int !error_cycles /. float_of_int cycles;
  }
