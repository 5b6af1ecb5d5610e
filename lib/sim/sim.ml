module Netlist = Rar_netlist.Netlist
module Cell_kind = Rar_netlist.Cell_kind
module Transform = Rar_netlist.Transform
module Liberty = Rar_liberty.Liberty
module Clocking = Rar_sta.Clocking
module Rng = Rar_util.Rng
module Heap = Rar_util.Heap
module Metrics = Rar_obs.Metrics

type design = {
  staged : Netlist.t;
  lib : Liberty.t;
  clocking : Clocking.t;
  ed_sinks : int list;
}

type cycle_result = {
  errors : int list;
  silent : int list;
  late : int list;
  late_at_slave : int list;
  capture_times : (int * float) list;
}

let m_cycles = Metrics.counter "sim_cycles"
let m_events = Metrics.counter "sim_events"

(* What a node does when one of its fanins changes. [Inert] covers
   master latches and flops: transparent while settling, never re-timed
   within the cycle. A [Gate]'s function is its [Cell_kind.t]. *)
type role = Input | Output | Slave | Inert | Gate

let role_of_kind = function
  | Netlist.Input -> Input
  | Netlist.Output -> Output
  | Netlist.Seq Netlist.Slave -> Slave
  | Netlist.Seq (Netlist.Master | Netlist.Flop) -> Inert
  | Netlist.Gate _ -> Gate

type compiled = {
  role : role array;
  fn : Cell_kind.t array;   (* a gate's function; [Buf] elsewhere *)
  fanin_head : int array;   (* the staged netlist's Compact view *)
  fanin : int array;
  fanout_head : int array;
  fanout : int array;
  rise : float array;       (* per gate: worst-pin rising-output delay *)
  fall : float array;
  order : int array;        (* non-input nodes, each after all its fanins *)
  inputs : int array;       (* [Netlist.inputs]: vector index -> node *)
  slaves : int array;       (* slave latches in id order *)
  outputs : int array;
  is_ed : bool array;
  open_t : float;
  close_t : float;
  ck_to_q : float;
  d_to_q : float;
  period : float;
  limit : float;
}

(* Kahn's order over every fanin edge, latches included: settling with
   transparent latches is then one pass. Only a cycle through latches
   can leave nodes unplaced (freeze rejects combinational ones). *)
let transparent_order cn =
  let { Netlist.Compact.n; tags; fanin_head; fanout_head; fanout; _ } = cn in
  let pending = Array.init n (fun v -> fanin_head.(v + 1) - fanin_head.(v)) in
  let queue = Array.make n 0 and len = ref 0 in
  let enqueue v =
    queue.(!len) <- v;
    incr len
  in
  for v = 0 to n - 1 do
    if pending.(v) = 0 then enqueue v
  done;
  let head = ref 0 in
  while !head < !len do
    let u = queue.(!head) in
    incr head;
    for p = fanout_head.(u) to fanout_head.(u + 1) - 1 do
      let w = fanout.(p) in
      pending.(w) <- pending.(w) - 1;
      if pending.(w) = 0 then enqueue w
    done
  done;
  if !len < n then invalid_arg "Sim.compile: latch cycle";
  Array.of_seq
    (Seq.filter
       (fun v -> tags.(v) <> Netlist.Compact.tag_input)
       (Array.to_seq queue))

let compile design =
  let net = design.staged and lib = design.lib in
  let cn = Netlist.compact net in
  let n = Netlist.node_count net in
  let order = transparent_order cn in
  (* Triggering-pin agnostic delays: the worst pin arc per output
     transition. The path-based STA times each pin on its own, so a
     simulated capture can land later than its STA arrival. *)
  let rise = Array.make n 0. and fall = Array.make n 0. in
  for v = 0 to n - 1 do
    match Netlist.kind net v with
    | Netlist.Gate { fn; drive } ->
      let cell = Liberty.comb_cell lib fn ~drive in
      let load = Liberty.gate_load lib net v in
      for pin = 0 to Netlist.Compact.fanin_deg cn v - 1 do
        let a = Liberty.pin_arc cell ~pin ~load in
        if a.Liberty.rise > rise.(v) then rise.(v) <- a.Liberty.rise;
        if a.Liberty.fall > fall.(v) then fall.(v) <- a.Liberty.fall
      done
    | Netlist.Input | Netlist.Output | Netlist.Seq _ -> ()
  done;
  let is_ed = Array.make n false in
  List.iter (fun s -> if s >= 0 && s < n then is_ed.(s) <- true) design.ed_sinks;
  let latch = Liberty.latch lib in
  {
    role = Array.init n (fun v -> role_of_kind (Netlist.kind net v));
    fn =
      Array.init n (fun v ->
          match Netlist.kind net v with
          | Netlist.Gate { fn; _ } -> fn
          | Netlist.Input | Netlist.Output | Netlist.Seq _ -> Cell_kind.Buf);
    fanin_head = cn.Netlist.Compact.fanin_head;
    fanin = cn.Netlist.Compact.fanin;
    fanout_head = cn.Netlist.Compact.fanout_head;
    fanout = cn.Netlist.Compact.fanout;
    rise;
    fall;
    order;
    inputs = Netlist.inputs net;
    slaves =
      Array.of_seq
        (Seq.filter
           (fun v -> Netlist.kind net v = Netlist.Seq Netlist.Slave)
           (Array.to_seq (Netlist.seqs net)));
    outputs = Netlist.outputs net;
    is_ed;
    open_t = Clocking.slave_open design.clocking;
    close_t = Clocking.slave_close design.clocking;
    ck_to_q = latch.Liberty.ck_to_q;
    d_to_q = latch.Liberty.d_to_q;
    period = Clocking.period design.clocking;
    limit = Clocking.max_delay design.clocking;
  }

(* A node's value from its fanins' current values, latches transparent. *)
let eval c (values : bool array) v =
  let lo = c.fanin_head.(v) in
  match c.role.(v) with
  | Gate -> Cell_kind.eval_at c.fn.(v) values c.fanin lo c.fanin_head.(v + 1)
  | Output | Slave | Inert -> values.(c.fanin.(lo)) (* D pin through *)
  | Input -> values.(v)

(* Per-run scratch: node values, the last value scheduled per node,
   capture times, and the event queue. An event item [2v + b] sets node
   [v] to [b]; a negative item [-1 - v] wakes slave [v] at its opening
   edge. *)
type state = {
  values : bool array;
  scheduled : bool array;
  capture : float array;
  queue : Heap.t;
  mutable events : int; (* value changes applied *)
}

let state c =
  let n = Array.length c.role in
  {
    values = Array.make n false;
    scheduled = Array.make n false;
    capture = Array.make n neg_infinity;
    queue = Heap.create ();
    events = 0;
  }

let[@inline] value_item v b = (2 * v) + Bool.to_int b

let[@inline] emit on_event t v b =
  match on_event with None -> () | Some f -> f ~time:t ~node:v ~value:b

let step ?on_event c st ~prev ~next =
  let n_in = Array.length c.inputs in
  if Array.length prev <> n_in || Array.length next <> n_in then
    invalid_arg "Sim.run_cycle: vector length mismatch";
  let values = st.values and scheduled = st.scheduled and capture = st.capture in
  let q = st.queue in
  (* Settle the previous vector with every latch transparent (its last
     cycle ended with data through). *)
  for i = 0 to n_in - 1 do
    values.(c.inputs.(i)) <- prev.(i)
  done;
  for k = 0 to Array.length c.order - 1 do
    let v = c.order.(k) in
    values.(v) <- eval c values v
  done;
  Array.blit values 0 scheduled 0 (Array.length values);
  for k = 0 to Array.length c.outputs - 1 do
    capture.(c.outputs.(k)) <- neg_infinity
  done;
  (* Slave latches wake at the opening edge to sample; then the next
     vector launches. *)
  for k = 0 to Array.length c.slaves - 1 do
    Heap.add q c.open_t (-1 - c.slaves.(k))
  done;
  for i = 0 to n_in - 1 do
    let src = c.inputs.(i) in
    if next.(i) <> values.(src) then begin
      scheduled.(src) <- next.(i);
      Heap.add q c.ck_to_q (value_item src next.(i))
    end
  done;
  let late_slave = ref [] in
  let draining = ref true in
  while !draining do
    match Heap.pop_min q with
    | None -> draining := false
    | Some (t, item) ->
      if item < 0 then begin
        (* sample the driver's settled value at opening *)
        let v = -1 - item in
        let u = c.fanin.(c.fanin_head.(v)) in
        if values.(u) <> values.(v) then begin
          scheduled.(v) <- values.(u);
          Heap.add q (t +. c.ck_to_q) (value_item v values.(u))
        end
      end
      else begin
        let v = item lsr 1 and value = item land 1 = 1 in
        if values.(v) <> value then begin
          values.(v) <- value;
          st.events <- st.events + 1;
          emit on_event t v value;
          for p = c.fanout_head.(v) to c.fanout_head.(v + 1) - 1 do
            let w = c.fanout.(p) in
            match c.role.(w) with
            | Output ->
              if values.(w) <> value then begin
                values.(w) <- value;
                scheduled.(w) <- value;
                capture.(w) <- Float.max capture.(w) t;
                st.events <- st.events + 1;
                emit on_event t w value
              end
            | Slave ->
              if t < c.open_t then () (* sampled at the opening edge *)
              else if t <= c.close_t then begin
                if scheduled.(w) <> value then begin
                  scheduled.(w) <- value;
                  Heap.add q (t +. c.d_to_q) (value_item w value)
                end
              end
              else late_slave := w :: !late_slave
            | Input | Inert -> ()
            | Gate ->
              (* Transport delay: evaluate against the current fanin
                 values; [scheduled] holds the logically latest output,
                 so an unchanged evaluation schedules nothing. *)
              let nv = eval c values w in
              if nv <> scheduled.(w) then begin
                scheduled.(w) <- nv;
                let d = if nv then c.rise.(w) else c.fall.(w) in
                Heap.add q (t +. d) (value_item w nv)
              end
          done
        end
      end
  done;
  let errors = ref [] and silent = ref [] and late = ref [] in
  let captures = ref [] in
  for k = 0 to Array.length c.outputs - 1 do
    let s = c.outputs.(k) in
    let t = capture.(s) in
    if t > neg_infinity then captures := (s, t) :: !captures;
    if t > c.limit +. 1e-9 then late := s :: !late
    else if t > c.period +. 1e-9 then
      if c.is_ed.(s) then errors := s :: !errors else silent := s :: !silent
  done;
  { errors = !errors; silent = !silent; late = !late;
    late_at_slave = List.sort_uniq compare !late_slave;
    capture_times = !captures }

let run_cycle ?on_event c ~prev ~next = step ?on_event c (state c) ~prev ~next

type rate = {
  cycles : int;
  error_cycles : int;
  error_events : int;
  silent_cycles : int;
  error_rate : float;
}

let error_rate ?(cycles = 500) ~seed design =
  Rar_obs.Trace.span "sim/error_rate" @@ fun () ->
  let c = compile design in
  let st = state c in
  let rng = Rng.of_string seed in
  let vec () = Array.init (Array.length c.inputs) (fun _ -> Rng.bool rng) in
  let prev = ref (vec ()) in
  let error_cycles = ref 0 and error_events = ref 0 and silent_cycles = ref 0 in
  for _ = 1 to cycles do
    let next = vec () in
    let r = step c st ~prev:!prev ~next in
    if r.errors <> [] then incr error_cycles;
    error_events := !error_events + List.length r.errors;
    if r.silent <> [] then incr silent_cycles;
    prev := next
  done;
  Metrics.add m_cycles (Int.max 0 cycles);
  Metrics.add m_events st.events;
  {
    cycles;
    error_cycles = !error_cycles;
    error_events = !error_events;
    silent_cycles = !silent_cycles;
    error_rate = 100. *. float_of_int !error_cycles /. float_of_int cycles;
  }
