module Netlist = Rar_netlist.Netlist
module Compact = Rar_netlist.Netlist.Compact
module Liberty = Rar_liberty.Liberty
module Cell_kind = Rar_netlist.Cell_kind
module Transform = Rar_netlist.Transform

type model = Gate_based | Path_based

let model_name = function
  | Gate_based -> "gate-based"
  | Path_based -> "path-based"

type db = { rise : float array; fall : float array }

(* Per-pin propagation codes. The model and the pin's unateness are
   folded into one int at [analyse] time so the sweep loops dispatch on
   a flat int array instead of re-matching variants per pin. *)
let un_pos = 0 (* path-based, positive unate *)
let un_neg = 1 (* path-based, negative unate *)
let un_non = 2 (* path-based, non-unate *)
let un_scalar = 3 (* gate-based: pa_rise = pa_fall = worst cell delay *)

type t = {
  net : Netlist.t;
  cv : Compact.t;
  lib : Liberty.t;
  mdl : model;
  launch_time : float;
  (* Pin-to-pin arcs, flattened over the compact view's global pin
     positions: pin [pin] of node [v] lives at [fanin_lo v + pin].
     Ports (non-gate pins) hold zeros and are never read. *)
  pa_rise : float array;
  pa_fall : float array;
  unate : int array;
  (* Arrival arena: rise/fall per node, filled by the forward sweep. *)
  arr_rise : float array;
  arr_fall : float array;
  mutable back_all_cache : float array option;
}

let neg_inf_arc = Liberty.{ rise = neg_infinity; fall = neg_infinity }

let netlist t = t.net
let model t = t.mdl

(* One pin propagation of the forward pass = one "relaxation" of the
   timing DP: the per-analysis total is structural (pins in the
   combinational fan-in), so the counter is deterministic under any
   pool size. *)
let m_pin_relax = Rar_obs.Metrics.counter "sta_pin_relaxations"
let m_incr_pins = Rar_obs.Metrics.counter "sta_incremental_pins"

let[@inline] with_extra extra x = if extra = 0. then x else x +. extra

(* Fill the timing arcs of gate [v] from the library. The node's ECO
   delay annotation, if any, is added to every arc; guarded so the
   un-annotated path stays bitwise what it always was. Shared by
   [analyse] and [patch] — patched arcs must be bitwise-identical to a
   cold analysis of the edited netlist. Allocates nothing. *)
let fill_gate_arcs lib mdl net cv annot pa_rise pa_fall v =
  match Netlist.kind net v with
  | Netlist.Gate _ ->
    let lo = Compact.fanin_lo cv v in
    Liberty.pin_arcs lib net v ~rise:pa_rise ~fall:pa_fall ~at:lo;
    let extra = match annot with None -> 0. | Some a -> a.(v) in
    for p = lo to Compact.fanin_hi cv v - 1 do
      match mdl with
      | Gate_based ->
        let d = with_extra extra (Float.max pa_rise.(p) pa_fall.(p)) in
        pa_rise.(p) <- d;
        pa_fall.(p) <- d
      | Path_based ->
        pa_rise.(p) <- with_extra extra pa_rise.(p);
        pa_fall.(p) <- with_extra extra pa_fall.(p)
    done
  | Netlist.Input | Netlist.Output | Netlist.Seq _ -> ()

(* The propagation codes of gate [v]'s pins. They depend on the model
   and the cell function alone, which no edit changes (a resize keeps
   the function), so [patch] shares the array. *)
let fill_unate mdl net cv unate v =
  match Netlist.kind net v with
  | Netlist.Gate { fn; _ } ->
    let lo = Compact.fanin_lo cv v in
    for p = lo to Compact.fanin_hi cv v - 1 do
      unate.(p) <-
        (match mdl with
        | Gate_based -> un_scalar
        | Path_based -> (
          match Cell_kind.unateness fn (p - lo) with
          | Cell_kind.Positive -> un_pos
          | Cell_kind.Negative -> un_neg
          | Cell_kind.Non_unate -> un_non))
    done
  | Netlist.Input | Netlist.Output | Netlist.Seq _ -> ()

(* The forward unateness rule of pin [p]: the output-rising
   ([pin_rise]) and output-falling ([pin_fall]) arrival when the pin's
   input rises at [in_r] and falls at [in_f]. Non-unate and gate-based
   pins take the worse input edge; a gate-based pin holds its one delay
   in both arc arrays, so the two codes share a branch. Inlined into
   every caller, so the float arguments are never boxed. *)
let[@inline] pin_rise t p in_r in_f =
  let code = t.unate.(p) in
  if code = un_pos then in_r +. t.pa_rise.(p)
  else if code = un_neg then in_f +. t.pa_rise.(p)
  else Float.max in_r in_f +. t.pa_rise.(p)

let[@inline] pin_fall t p in_r in_f =
  let code = t.unate.(p) in
  if code = un_pos then in_f +. t.pa_fall.(p)
  else if code = un_neg then in_r +. t.pa_fall.(p)
  else Float.max in_r in_f +. t.pa_fall.(p)

(* A pin fed through a slave sees [max open (a + d_to_q)] per edge;
   [slave_timing] holds [open] (the slave's opening edge plus its
   clock-to-Q) and [d_to_q], the only two numbers a slave adds. *)
let slave_timing clocking latch =
  [| Clocking.slave_open clocking +. latch.Liberty.ck_to_q;
     latch.Liberty.d_to_q |]

let[@inline] through_slave slave a = Float.max slave.(0) (a +. slave.(1))

(* The per-gate forward kernel every sweep shares: the worst (rise,
   fall) at the output of gate [v] from its fanins' entries in
   [arr_r]/[arr_f], written back at [v]. A non-empty [index]
   ({!Transform.pin_index}) latches pin [p] when [index.(p) >= 0].
   Node and pin indices and arenas only: a float argument of a call
   that is not inlined would be boxed. *)
let relax_gate t index slave arr_r arr_f v =
  let fin = t.cv.Compact.fanin and head = t.cv.Compact.fanin_head in
  let latching = Array.length index > 0 in
  let best_r = ref neg_infinity and best_f = ref neg_infinity in
  for p = head.(v) to head.(v + 1) - 1 do
    let u = fin.(p) in
    let latched = latching && index.(p) >= 0 in
    let in_r = if latched then through_slave slave arr_r.(u) else arr_r.(u) in
    let in_f = if latched then through_slave slave arr_f.(u) else arr_f.(u) in
    let out_r = pin_rise t p in_r in_f and out_f = pin_fall t p in_r in_f in
    if out_r > !best_r then best_r := out_r;
    if out_f > !best_f then best_f := out_f
  done;
  arr_r.(v) <- !best_r;
  arr_f.(v) <- !best_f

(* The one full forward sweep, in topological order: a source launches
   at [t.launch_time], a sink takes its driver's arrival (through a
   slave when its pin is latched), a gate runs [relax_gate]. Returns
   the gate pins relaxed. *)
let sweep t index slave arr_r arr_f =
  let cv = t.cv in
  let tags = cv.Compact.tags and head = cv.Compact.fanin_head in
  let topo = Compact.topo cv in
  let latching = Array.length index > 0 in
  let pins = ref 0 in
  for i = 0 to Compact.n cv - 1 do
    let v = topo.(i) in
    let tg = tags.(v) in
    if tg = Compact.tag_input then begin
      arr_r.(v) <- t.launch_time;
      arr_f.(v) <- t.launch_time
    end
    else if tg = Compact.tag_output then begin
      let p = head.(v) in
      let u = cv.Compact.fanin.(p) in
      if latching && index.(p) >= 0 then begin
        arr_r.(v) <- through_slave slave arr_r.(u);
        arr_f.(v) <- through_slave slave arr_f.(u)
      end
      else begin
        arr_r.(v) <- arr_r.(u);
        arr_f.(v) <- arr_f.(u)
      end
    end
    else begin
      (* a gate: [analyse] rejects sequential nodes *)
      relax_gate t index slave arr_r arr_f v;
      pins := !pins + (head.(v + 1) - head.(v))
    end
  done;
  !pins

let check_annot fn_name net = function
  | Some a when Array.length a <> Netlist.node_count net ->
    invalid_arg (fn_name ^ ": annot length mismatch")
  | Some _ | None -> ()

let analyse ?launch ?annot lib mdl net =
  Rar_obs.Trace.span "sta/analyse" @@ fun () ->
  Array.iter
    (fun v ->
      if Netlist.is_seq net v then
        invalid_arg "Sta.analyse: netlist contains sequential nodes")
    (Netlist.seqs net);
  check_annot "Sta.analyse" net annot;
  let launch_time =
    match launch with Some l -> l | None -> (Liberty.latch lib).Liberty.ck_to_q
  in
  let cv = Netlist.compact net in
  let n = Compact.n cv in
  let n_pins_total = Compact.fanin_lo cv n in
  let pa_rise = Array.make (Int.max 1 n_pins_total) 0. in
  let pa_fall = Array.make (Int.max 1 n_pins_total) 0. in
  let unate = Array.make (Int.max 1 n_pins_total) un_non in
  for v = 0 to n - 1 do
    fill_gate_arcs lib mdl net cv annot pa_rise pa_fall v;
    fill_unate mdl net cv unate v
  done;
  let t =
    { net; cv; lib; mdl; launch_time; pa_rise; pa_fall; unate;
      arr_rise = Array.make n neg_infinity;
      arr_fall = Array.make n neg_infinity; back_all_cache = None }
  in
  Rar_obs.Metrics.add m_pin_relax (sweep t [||] [||] t.arr_rise t.arr_fall);
  t

let patch t ~net ?annot ~dirty_arcs ~seeds () =
  Rar_obs.Trace.span "sta/patch" @@ fun () ->
  check_annot "Sta.patch" net annot;
  let cv = Netlist.compact net in
  let n = Compact.n cv in
  if n <> Compact.n t.cv then invalid_arg "Sta.patch: node count changed";
  (* A resize or an annotation keeps the compact view itself: only a
     rewired netlist has a layout to check. *)
  if cv.Compact.fanin_head != t.cv.Compact.fanin_head then
    for v = 0 to n - 1 do
      if Compact.fanin_lo cv v <> Compact.fanin_lo t.cv v then
        invalid_arg "Sta.patch: pin layout changed"
    done;
  (* Arc tables are never written after they are filled, so a patch
     with no dirty arc shares them, and every patch shares the
     propagation codes. *)
  let pa_rise, pa_fall =
    if dirty_arcs = [] then (t.pa_rise, t.pa_fall)
    else (Array.copy t.pa_rise, Array.copy t.pa_fall)
  in
  let pins = ref 0 in
  List.iter
    (fun v ->
      fill_gate_arcs t.lib t.mdl net cv annot pa_rise pa_fall v;
      pins := !pins + (Compact.fanin_hi cv v - Compact.fanin_lo cv v))
    dirty_arcs;
  (* [need]: a node whose arcs or fanins changed, or one of whose
     fanins changed its arrival (marked through the fanout rows as the
     wave reaches that fanin, which the order puts first). *)
  let need = Bytes.make n '\000' in
  let changed = Array.make n false in
  List.iter (fun v -> Bytes.set need v '\001') dirty_arcs;
  List.iter (fun v -> Bytes.set need v '\001') seeds;
  let t' =
    { t with net; cv; pa_rise; pa_fall;
      arr_rise = Array.copy t.arr_rise; arr_fall = Array.copy t.arr_fall;
      back_all_cache = None }
  in
  let arr_rise = t'.arr_rise and arr_fall = t'.arr_fall in
  let tags = cv.Compact.tags in
  let fo_head = cv.Compact.fanout_head and fo = cv.Compact.fanout in
  let topo = Compact.topo cv in
  for i = 0 to n - 1 do
    let v = topo.(i) in
    (* a source's launch time never changes *)
    if Bytes.get need v <> '\000' && tags.(v) <> Compact.tag_input then begin
      let lo = Compact.fanin_lo cv v and hi = Compact.fanin_hi cv v in
      let old_r = arr_rise.(v) and old_f = arr_fall.(v) in
      if tags.(v) = Compact.tag_output then begin
        let u = Compact.fanin cv lo in
        incr pins;
        arr_rise.(v) <- arr_rise.(u);
        arr_fall.(v) <- arr_fall.(u)
      end
      else begin
        relax_gate t' [||] [||] arr_rise arr_fall v;
        pins := !pins + (hi - lo)
      end;
      (* Bitwise-equal cutoff: propagation stops where the recomputed
         arrival is exactly the old one (identical float expressions
         over identical inputs downstream stay identical too). *)
      if
        Int64.bits_of_float old_r <> Int64.bits_of_float arr_rise.(v)
        || Int64.bits_of_float old_f <> Int64.bits_of_float arr_fall.(v)
      then begin
        changed.(v) <- true;
        for q = fo_head.(v) to fo_head.(v + 1) - 1 do
          Bytes.unsafe_set need fo.(q) '\001'
        done
      end
    end
  done;
  Rar_obs.Metrics.add m_incr_pins !pins;
  (* Even with unchanged arrivals, nodes with modified arcs (and
     rewired nodes, whose fanin identity changed) have different
     edge-propagation behaviour; report them as changed so downstream
     cone invalidation reclassifies through them. *)
  List.iter (fun v -> changed.(v) <- true) dirty_arcs;
  List.iter (fun v -> changed.(v) <- true) seeds;
  (t', changed)

let arrival_arc t v = Liberty.{ rise = t.arr_rise.(v); fall = t.arr_fall.(v) }
let df t v = Float.max t.arr_rise.(v) t.arr_fall.(v)
let arrival_at_sink t v = df t v

(* The backward times pin [p] hands its driver when the pin's reader
   has [r] (output rising) and [f] at its output: the backward rule of
   the pin's unateness, by the polarity at the driver. Inlined into
   every caller, so the floats are never boxed. *)
let[@inline] back_rise t p r f =
  let code = t.unate.(p) in
  if code = un_pos then t.pa_rise.(p) +. r
  else if code = un_neg then t.pa_fall.(p) +. f
  else if code = un_non then Float.max (t.pa_rise.(p) +. r) (t.pa_fall.(p) +. f)
  else t.pa_rise.(p) +. Float.max r f

let[@inline] back_fall t p r f =
  let code = t.unate.(p) in
  if code = un_pos then t.pa_fall.(p) +. f
  else if code = un_neg then t.pa_rise.(p) +. r
  else if code = un_non then Float.max (t.pa_rise.(p) +. r) (t.pa_fall.(p) +. f)
  else t.pa_rise.(p) +. Float.max r f

(* Relax one node of the backward DP: push [dbr/dbf .(w)] into the
   backward times of w's fanins. Pure float-array arithmetic: the old
   per-pin [Liberty.arc] allocations were the dominant cost of cone
   classification. *)
let relax_back t dbr dbf w =
  let cv = t.cv in
  let fin = cv.Compact.fanin and head = cv.Compact.fanin_head in
  let tg = cv.Compact.tags.(w) in
  if tg = Compact.tag_input then ()
  else if tg = Compact.tag_output then begin
    let u = fin.(head.(w)) in
    if dbr.(w) > dbr.(u) then dbr.(u) <- dbr.(w);
    if dbf.(w) > dbf.(u) then dbf.(u) <- dbf.(w)
  end
  else begin
    let r = dbr.(w) and f = dbf.(w) in
    for p = head.(w) to head.(w + 1) - 1 do
      let u = fin.(p) in
      let c_r = back_rise t p r f and c_f = back_fall t p r f in
      if c_r > dbr.(u) then dbr.(u) <- c_r;
      if c_f > dbf.(u) then dbf.(u) <- c_f
    done
  end

(* [relax_back] in pull form: [u]'s backward times recomputed from its
   readers' entries, over every pin it drives. The same terms as the
   push pass, whose result does not depend on their order (a max), so
   the two agree bitwise. *)
let pull_back t dbr dbf u =
  let cv = t.cv in
  let fin = cv.Compact.fanin and head = cv.Compact.fanin_head in
  let fo_head = cv.Compact.fanout_head and fo = cv.Compact.fanout in
  let tags = cv.Compact.tags in
  let best_r = ref neg_infinity and best_f = ref neg_infinity in
  let lo = fo_head.(u) in
  for q = lo to fo_head.(u + 1) - 1 do
    let w = fo.(q) in
    (* a reader's parallel pins are adjacent: visit it once *)
    if q = lo || fo.(q - 1) <> w then begin
      let r = dbr.(w) and f = dbf.(w) in
      if tags.(w) = Compact.tag_output then begin
        if r > !best_r then best_r := r;
        if f > !best_f then best_f := f
      end
      else
        for p = head.(w) to head.(w + 1) - 1 do
          if fin.(p) = u then begin
            let c_r = back_rise t p r f and c_f = back_fall t p r f in
            if c_r > !best_r then best_r := c_r;
            if c_f > !best_f then best_f := c_f
          end
        done
    end
  done;
  dbr.(u) <- !best_r;
  dbf.(u) <- !best_f

(* Shared backward DP: [init] seeds the starting times. *)
let backward_from t init =
  let n = Compact.n t.cv in
  let dbr = Array.make n neg_infinity in
  let dbf = Array.make n neg_infinity in
  init dbr dbf;
  let topo = Compact.topo t.cv in
  for i = n - 1 downto 0 do
    let w = topo.(i) in
    if dbr.(w) > neg_infinity || dbf.(w) > neg_infinity then
      relax_back t dbr dbf w
  done;
  { rise = dbr; fall = dbf }

let check_sink fn_name t sink =
  match Netlist.kind t.net sink with
  | Netlist.Output -> ()
  | _ -> invalid_arg (fn_name ^ ": sink must be an Output node")

let backward_packed t ~sink =
  check_sink "Sta.backward" t sink;
  backward_from t (fun dbr dbf ->
      dbr.(sink) <- 0.;
      dbf.(sink) <- 0.)

let backward t ~sink =
  let { rise; fall } = backward_packed t ~sink in
  Array.init (Array.length rise) (fun v ->
      if rise.(v) = neg_infinity && fall.(v) = neg_infinity then neg_inf_arc
      else Liberty.{ rise = rise.(v); fall = fall.(v) })

let worst_of { rise; fall } =
  let w = Array.create_float (Array.length rise) in
  for v = 0 to Array.length rise - 1 do
    w.(v) <- Float.max rise.(v) fall.(v)
  done;
  w

let backward_all_db t =
  Rar_obs.Trace.span "sta/backward_all" @@ fun () ->
  let db =
    backward_from t (fun dbr dbf ->
        Array.iter
          (fun s ->
            dbr.(s) <- 0.;
            dbf.(s) <- 0.)
          (Netlist.outputs t.net))
  in
  if t.back_all_cache = None then t.back_all_cache <- Some (worst_of db);
  db

let backward_all t =
  match t.back_all_cache with
  | Some r -> r
  | None ->
    ignore (backward_all_db t : db);
    Option.get t.back_all_cache

let patch_backward_all t ~prev ~db ~dirty_arcs ~seeds =
  let cv = t.cv in
  let n = Compact.n cv in
  if n <> Compact.n prev.cv || Array.length db.rise <> n then
    invalid_arg "Sta.patch_backward_all: analyses of different netlists";
  let dbr = db.rise and dbf = db.fall in
  let need = Bytes.make n '\000' in
  let mark_fanins (c : Compact.t) w =
    for p = c.Compact.fanin_head.(w) to c.Compact.fanin_head.(w + 1) - 1 do
      Bytes.unsafe_set need c.Compact.fanin.(p) '\001'
    done
  in
  (* Stale: the drivers of a node whose arcs changed, and the node
     itself (a rewire's old and new drivers change readers); a rewired
     node's drivers before and after the edit. Then every driver of a
     node whose times moved, which the reverse order reaches later. *)
  List.iter
    (fun v ->
      Bytes.set need v '\001';
      mark_fanins cv v)
    dirty_arcs;
  List.iter
    (fun v ->
      mark_fanins cv v;
      mark_fanins prev.cv v)
    seeds;
  let tags = cv.Compact.tags and topo = Compact.topo cv in
  let moved = ref [] in
  for i = n - 1 downto 0 do
    let u = topo.(i) in
    (* a sink's own time is 0 whatever changed *)
    if Bytes.get need u <> '\000' && tags.(u) <> Compact.tag_output then begin
      let old_r = dbr.(u) and old_f = dbf.(u) in
      pull_back t dbr dbf u;
      (* the forward wave's bitwise-equal cutoff *)
      if
        Int64.bits_of_float old_r <> Int64.bits_of_float dbr.(u)
        || Int64.bits_of_float old_f <> Int64.bits_of_float dbf.(u)
      then begin
        moved := u :: !moved;
        mark_fanins cv u
      end
    end
  done;
  let worst =
    match prev.back_all_cache with
    | None -> worst_of db
    | Some w ->
      let w = Array.copy w in
      List.iter (fun v -> w.(v) <- Float.max dbr.(v) dbf.(v)) !moved;
      w
  in
  t.back_all_cache <- Some worst;
  !moved

(* Worst arc at the output of [via] when the pin(s) driven by [driver]
   switch at (in_r, in_f); raises like the old record-based [through]
   when [driver] does not feed [via]. *)
let through_rf t ~driver ~via in_r in_f =
  let cv = t.cv in
  let tg = Compact.tag cv via in
  if tg = Compact.tag_output then begin
    if Compact.fanin cv (Compact.fanin_lo cv via) <> driver then
      invalid_arg "Sta.through: driver does not feed via";
    (in_r, in_f)
  end
  else if tg = Compact.tag_gate then begin
    let best_r = ref neg_infinity and best_f = ref neg_infinity in
    let hi = Compact.fanin_hi cv via in
    for p = Compact.fanin_lo cv via to hi - 1 do
      if Compact.fanin cv p = driver then begin
        let out_r = pin_rise t p in_r in_f and out_f = pin_fall t p in_r in_f in
        if out_r > !best_r then best_r := out_r;
        if out_f > !best_f then best_f := out_f
      end
    done;
    if !best_r = neg_infinity && !best_f = neg_infinity then
      invalid_arg "Sta.through: driver does not feed via";
    (!best_r, !best_f)
  end
  else invalid_arg "Sta.through: via must be a gate or sink"

let through t ~driver ~via arc =
  let r, f = through_rf t ~driver ~via arc.Liberty.rise arc.Liberty.fall in
  Liberty.{ rise = r; fall = f }

let latch_out t ~clocking ~latch u =
  let slave = slave_timing clocking latch in
  {
    Liberty.rise = through_slave slave t.arr_rise.(u);
    fall = through_slave slave t.arr_fall.(u);
  }

(* The arc at [v]'s output with a slave right after its fanin [u]. *)
let slave_through t slave ~u ~v =
  through_rf t ~driver:u ~via:v
    (through_slave slave t.arr_rise.(u))
    (through_slave slave t.arr_fall.(u))

let arrival_with_slave_after t ~clocking ~latch ~u ~v ~db =
  let out_r, out_f = slave_through t (slave_timing clocking latch) ~u ~v in
  Float.max (out_r +. db.rise.(v)) (out_f +. db.fall.(v))

(* ------------------------------------------------------------------ *)
(* Lane-batched cone scratch                                           *)
(* ------------------------------------------------------------------ *)

let lanes = 8

type batch = {
  mutable epoch : int;
  seen : int array;        (* [= epoch]: node is in the loaded union *)
  order : int array;       (* [0 .. size-1]: the union, each node before its fanins *)
  mutable size : int;
  mutable width : int;     (* sinks loaded: lanes [0 .. width-1] *)
  stack_v : int array;     (* DFS stack: node ... *)
  stack_p : int array;     (* ... and its next fanin pin position *)
  mask : int array;        (* per node: bit [l] iff in lane [l]'s cone *)
  dbr : float array;       (* [v * lanes + l]: D^b(v, sink l), per polarity *)
  dbf : float array;
  a : float array;         (* [(p - fanin_lo v) * lanes + l]: A at one node *)
}

let batch_scratch t =
  let cv = t.cv in
  let n = Compact.n cv in
  let max_pins = ref 1 in
  for v = 0 to n - 1 do
    max_pins := Int.max !max_pins (Compact.fanin_hi cv v - Compact.fanin_lo cv v)
  done;
  {
    epoch = 0;
    seen = Array.make n 0;
    order = Array.make n 0;
    size = 0;
    width = 0;
    stack_v = Array.make n 0;
    stack_p = Array.make n 0;
    mask = Array.make n 0;
    (* written before they are read, so left uninitialised *)
    dbr = Array.create_float (n * lanes);
    dbf = Array.create_float (n * lanes);
    a = Array.create_float (!max_pins * lanes);
  }

(* Unchecked access to the lane arenas. Every index is [v * lanes + l]
   with [v < n] and [l < width <= lanes], into arrays of [n * lanes]
   (or, for [a], [p * lanes + l] with [p] under the widest node's pin
   count): in bounds by construction. *)
let[@inline] lget (x : float array) i = Array.unsafe_get x i
let[@inline] lset (x : float array) i (y : float) = Array.unsafe_set x i y

(* Push backward times [c_r]/[c_f] into entry [i], keeping the worst. *)
let[@inline] push dbr dbf i c_r c_f =
  if c_r > lget dbr i then lset dbr i c_r;
  if c_f > lget dbf i then lset dbf i c_f

(* [relax_back] of node [w] in every loaded lane at once: the same
   float expressions per lane, with the unateness dispatch hoisted out
   of the lane loop. A lane whose cone misses [w] holds [neg_infinity]
   there and pushes nothing, so the loops need not test the mask. *)
let relax_lanes t b w =
  let cv = t.cv in
  let fin = cv.Compact.fanin and head = cv.Compact.fanin_head in
  let tg = cv.Compact.tags.(w) in
  let k = b.width and dbr = b.dbr and dbf = b.dbf and mask = b.mask in
  let wb = w * lanes in
  if tg = Compact.tag_input then ()
  else if tg = Compact.tag_output then begin
    let u = fin.(head.(w)) in
    let ub = u * lanes in
    mask.(u) <- mask.(u) lor mask.(w);
    for l = 0 to k - 1 do
      push dbr dbf (ub + l) (lget dbr (wb + l)) (lget dbf (wb + l))
    done
  end
  else begin
    let m = mask.(w) in
    for p = head.(w) to head.(w + 1) - 1 do
      let u = fin.(p) in
      let ub = u * lanes in
      mask.(u) <- mask.(u) lor m;
      let code = t.unate.(p) and d_r = t.pa_rise.(p) and d_f = t.pa_fall.(p) in
      if code = un_pos then
        for l = 0 to k - 1 do
          push dbr dbf (ub + l)
            (d_r +. lget dbr (wb + l))
            (d_f +. lget dbf (wb + l))
        done
      else if code = un_neg then
        for l = 0 to k - 1 do
          push dbr dbf (ub + l)
            (d_f +. lget dbf (wb + l))
            (d_r +. lget dbr (wb + l))
        done
      else if code = un_non then
        for l = 0 to k - 1 do
          let worst =
            Float.max (d_r +. lget dbr (wb + l)) (d_f +. lget dbf (wb + l))
          in
          push dbr dbf (ub + l) worst worst
        done
      else
        for l = 0 to k - 1 do
          let c = d_r +. Float.max (lget dbr (wb + l)) (lget dbf (wb + l)) in
          push dbr dbf (ub + l) c c
        done
    done
  end

(* Add [v] to the union of the loaded batch ([k] lanes, stamp [ep]),
   with its lanes cleared: only the union's lanes are reset, and
   nothing else is read. *)
let[@inline] discover b k ep v =
  b.seen.(v) <- ep;
  b.mask.(v) <- 0;
  let base = v * lanes in
  for i = base to base + k - 1 do
    lset b.dbr i neg_infinity;
    lset b.dbf i neg_infinity
  done

let union_size t b sinks =
  let k = Array.length sinks in
  if k < 1 || k > lanes then invalid_arg "Sta.load_batch: 1 to 8 sinks";
  for l = 0 to k - 1 do
    check_sink "Sta.load_batch" t sinks.(l)
  done;
  let cv = t.cv in
  if Array.length b.seen <> Compact.n cv then
    invalid_arg "Sta.load_batch: scratch built for another netlist";
  b.epoch <- b.epoch + 1;
  b.width <- k;
  let ep = b.epoch in
  let seen = b.seen and order = b.order and mask = b.mask in
  let head = cv.Compact.fanin_head and fin = cv.Compact.fanin in
  let stack_v = b.stack_v and stack_p = b.stack_p in
  (* One iterative DFS along fanin edges from each sink in turn, over
     one [seen] stamp. In a DAG a node finishes after all its fanins,
     whichever root reached it, so the postorder of the whole forest is
     a topological order of the union: the backward DP runs it from the
     end, with no sort and no pass over all n. *)
  let size = ref 0 in
  for l = 0 to k - 1 do
    let s = sinks.(l) in
    if seen.(s) <> ep then begin
      discover b k ep s;
      stack_v.(0) <- s;
      stack_p.(0) <- head.(s);
      let top = ref 1 in
      while !top > 0 do
        let v = stack_v.(!top - 1) in
        let p = stack_p.(!top - 1) in
        if p < head.(v + 1) then begin
          stack_p.(!top - 1) <- p + 1;
          let u = fin.(p) in
          if seen.(u) <> ep then begin
            discover b k ep u;
            stack_v.(!top) <- u;
            stack_p.(!top) <- head.(u);
            incr top
          end
        end
        else begin
          order.(!size) <- v;
          incr size;
          decr top
        end
      done
    end;
    lset b.dbr ((s * lanes) + l) 0.;
    lset b.dbf ((s * lanes) + l) 0.;
    mask.(s) <- mask.(s) lor (1 lsl l)
  done;
  b.size <- !size;
  !size

let load_batch t b sinks =
  for i = union_size t b sinks - 1 downto 0 do
    relax_lanes t b b.order.(i)
  done

(* ------------------------------------------------------------------ *)
(* Slave arcs, hoisted out of the per-sink kernel                      *)
(* ------------------------------------------------------------------ *)

type slave_arcs = { out_rise : float array; out_fall : float array }

(* [latch_out u] pushed through the worst of the pins of [v] that [u]
   drives, for every fanin pin [p] of gate or sink [v] — the half of
   Eq. 5 that does not depend on the sink. Each pin's worst arc is
   written in place, so nothing is allocated per pin. *)
let fill_slave_arcs t slave out_rise out_fall v =
  let cv = t.cv in
  let head = cv.Compact.fanin_head and fin = cv.Compact.fanin in
  let is_sink = cv.Compact.tags.(v) = Compact.tag_output in
  for p = head.(v) to head.(v + 1) - 1 do
    let u = fin.(p) in
    let in_r = through_slave slave t.arr_rise.(u) in
    let in_f = through_slave slave t.arr_fall.(u) in
    if is_sink then begin
      out_rise.(p) <- in_r;
      out_fall.(p) <- in_f
    end
    else begin
      (* the worst over every pin of [v] that [u] drives, as
         [through_rf] takes it *)
      let best_r = ref neg_infinity and best_f = ref neg_infinity in
      for q = head.(v) to head.(v + 1) - 1 do
        if fin.(q) = u then begin
          let out_r = pin_rise t q in_r in_f
          and out_f = pin_fall t q in_r in_f in
          if out_r > !best_r then best_r := out_r;
          if out_f > !best_f then best_f := out_f
        end
      done;
      out_rise.(p) <- !best_r;
      out_fall.(p) <- !best_f
    end
  done

let slave_arcs t ~clocking ~latch =
  let cv = t.cv in
  let n = Compact.n cv in
  let n_pins = Int.max 1 (Compact.fanin_lo cv n) in
  let out_rise = Array.make n_pins neg_infinity in
  let out_fall = Array.make n_pins neg_infinity in
  let slave = slave_timing clocking latch in
  for v = 0 to n - 1 do
    (* analyse rejects sequential nodes: [v] is a source, gate or sink *)
    if cv.Compact.tags.(v) <> Compact.tag_input then
      fill_slave_arcs t slave out_rise out_fall v
  done;
  { out_rise; out_fall }

let patch_slave_arcs t arcs ~clocking ~latch ~changed =
  let cv = t.cv in
  let n = Compact.n cv in
  if
    Array.length changed <> n
    || Array.length arcs.out_rise <> Int.max 1 (Compact.fanin_lo cv n)
  then invalid_arg "Sta.patch_slave_arcs: arcs of another pin layout";
  let slave = slave_timing clocking latch in
  let head = cv.Compact.fanin_head and fin = cv.Compact.fanin in
  for v = 0 to n - 1 do
    if cv.Compact.tags.(v) <> Compact.tag_input then begin
      (* a pin's arc reads its reader's arcs and fanins and its
         driver's arrival *)
      let stale = ref changed.(v) and p = ref head.(v) in
      while (not !stale) && !p < head.(v + 1) do
        stale := changed.(fin.(!p));
        incr p
      done;
      if !stale then fill_slave_arcs t slave arcs.out_rise arcs.out_fall v
    end
  done

let slave_delay_bound t ~clocking ~latch =
  let early = ref false in
  for v = 0 to Array.length t.arr_rise - 1 do
    if t.arr_rise.(v) < t.launch_time || t.arr_fall.(v) < t.launch_time then
      early := true
  done;
  if !early then None
  else
    let slave = slave_timing clocking latch in
    Some (Float.max (slave.(0) -. t.launch_time) slave.(1))

(* Eq. 5 at every fanin pin of [v], in every loaded lane, from the
   hoisted arcs: one add pair and a max per pin and lane. *)
let batch_slave_arrivals t b arcs v =
  let head = t.cv.Compact.fanin_head in
  if Array.length b.seen <> Compact.n t.cv || v < 0 || v >= Array.length b.seen
  then invalid_arg "Sta.batch_slave_arrivals: node outside the scratch";
  let lo = head.(v) and hi = head.(v + 1) in
  if (hi - lo) * lanes > Array.length b.a then
    invalid_arg "Sta.batch_slave_arrivals: scratch built for another netlist";
  let out_r = arcs.out_rise and out_f = arcs.out_fall in
  let dbr = b.dbr and dbf = b.dbf and a = b.a and k = b.width in
  let vb = v * lanes in
  for p = lo to hi - 1 do
    let o_r = out_r.(p) and o_f = out_f.(p) and j = (p - lo) * lanes in
    for l = 0 to k - 1 do
      lset a (j + l)
        (Float.max (o_r +. lget dbr (vb + l)) (o_f +. lget dbf (vb + l)))
    done
  done

let forward_with_latches t ~clocking ~latch index =
  let cv = t.cv in
  let n = Compact.n cv in
  if Array.length index <> Int.max 1 (Compact.fanin_lo cv n) then
    invalid_arg "Sta.forward_with_latches: index of another pin layout";
  let slave = slave_timing clocking latch in
  let arr_r = Array.make n neg_infinity in
  let arr_f = Array.make n neg_infinity in
  ignore (sweep t index slave arr_r arr_f : int);
  for v = 0 to n - 1 do
    arr_r.(v) <- Float.max arr_r.(v) arr_f.(v)
  done;
  arr_r

(* ------------------------------------------------------------------ *)
(* Path reports                                                        *)
(* ------------------------------------------------------------------ *)

type path_step = {
  node : int;
  incr : float;
  arrival : float;
  edge : [ `Rise | `Fall ];
}

let worst_edge_rf r f = if r >= f then (`Rise, r) else (`Fall, f)

let critical_path t ~sink =
  check_sink "Sta.critical_path" t sink;
  let cv = t.cv in
  (* Walk back greedily: at each node pick the fanin/pin/edge pairing
     that explains the node's worst arrival. *)
  let rec walk v edge acc =
    let arrival =
      match edge with `Rise -> t.arr_rise.(v) | `Fall -> t.arr_fall.(v)
    in
    match Netlist.kind t.net v with
    | Netlist.Input -> { node = v; incr = 0.; arrival; edge } :: acc
    | Netlist.Output ->
      let u = Compact.fanin cv (Compact.fanin_lo cv v) in
      walk u edge ({ node = v; incr = 0.; arrival; edge } :: acc)
    | Netlist.Gate { fn; _ } ->
      (* find the (pin, input edge) whose propagation equals arrival *)
      let best = ref None in
      let lo = Compact.fanin_lo cv v in
      let hi = Compact.fanin_hi cv v in
      for p = lo to hi - 1 do
        let u = Compact.fanin cv p in
        let in_r = t.arr_rise.(u) and in_f = t.arr_fall.(u) in
        let v_arr =
          match edge with
          | `Rise -> pin_rise t p in_r in_f
          | `Fall -> pin_fall t p in_r in_f
        in
        if Float.abs (v_arr -. arrival) < 1e-9 && !best = None then begin
          (* reconstruct which input edge produced it *)
          let in_edge =
            match (t.mdl, Cell_kind.unateness fn (p - lo), edge) with
            | Gate_based, _, _ | _, Cell_kind.Non_unate, _ ->
              if in_r >= in_f then `Rise else `Fall
            | _, Cell_kind.Positive, e -> e
            | _, Cell_kind.Negative, `Rise -> `Fall
            | _, Cell_kind.Negative, `Fall -> `Rise
          in
          best := Some (u, in_edge)
        end
      done;
      (match !best with
      | Some (u, in_edge) ->
        let in_arr =
          match in_edge with
          | `Rise -> t.arr_rise.(u)
          | `Fall -> t.arr_fall.(u)
        in
        walk u in_edge
          ({ node = v; incr = arrival -. in_arr; arrival; edge } :: acc)
      | None ->
        (* numeric slack; stop the trace here *)
        { node = v; incr = 0.; arrival; edge } :: acc)
    | Netlist.Seq _ -> assert false
  in
  let e, _ = worst_edge_rf t.arr_rise.(sink) t.arr_fall.(sink) in
  walk sink e []

let report_path t ~clocking ~sink =
  let steps = critical_path t ~sink in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "Startpoint: %s\nEndpoint:   %s (%s)\n"
       (match steps with
       | s :: _ -> Netlist.node_name t.net s.node
       | [] -> "?")
       (Netlist.node_name t.net sink)
       (model_name t.mdl));
  Buffer.add_string buf
    (Printf.sprintf "%-24s %6s %9s %9s\n" "point" "edge" "incr" "arrival");
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf "%-24s %6s %9.4f %9.4f\n"
           (Netlist.node_name t.net s.node)
           (match s.edge with `Rise -> "r" | `Fall -> "f")
           s.incr s.arrival))
    steps;
  let arrival = arrival_at_sink t sink in
  let period = Clocking.period clocking in
  let limit = Clocking.max_delay clocking in
  Buffer.add_string buf
    (Printf.sprintf
       "%-24s %6s %9s %9.4f\n%-24s %6s %9s %9.4f\nendpoint arrival %.4f: %s\n"
       "period Pi" "" "" period "max delay P" "" "" limit arrival
       (if Clocking.past_max_delay clocking arrival then "VIOLATED"
        else if Clocking.past_period clocking arrival then
          "inside resiliency window (needs error detection)"
        else "met before the window"));
  Buffer.contents buf
