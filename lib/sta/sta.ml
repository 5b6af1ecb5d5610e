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
let library t = t.lib
let model t = t.mdl
let launch t = t.launch_time

(* One pin propagation of the forward pass = one "relaxation" of the
   timing DP: the per-analysis total is structural (pins in the
   combinational fan-in), so the counter is deterministic under any
   pool size. *)
let m_pin_relax = Rar_obs.Metrics.counter "sta_pin_relaxations"
let m_incr_pins = Rar_obs.Metrics.counter "sta_incremental_pins"

(* Fill the timing arcs of gate [v] from the library. [extra] is the
   node's ECO delay annotation, added to every arc; guarded so the
   un-annotated path stays bitwise what it always was. Shared by
   [analyse] and [patch] — patched arcs must be bitwise-identical to a
   cold analysis of the edited netlist. *)
let fill_gate_arcs lib mdl net cv extra pa_rise pa_fall unate v =
  match Netlist.kind net v with
  | Netlist.Gate { fn; drive } ->
    let cell = Liberty.comb_cell lib fn ~drive in
    let load = Liberty.gate_load lib net v in
    let lo = Compact.fanin_lo cv v in
    let n_pins = Compact.fanin_hi cv v - lo in
    let adj x = if extra = 0. then x else x +. extra in
    for pin = 0 to n_pins - 1 do
      let pa = Liberty.pin_arc cell ~pin ~load in
      match mdl with
      | Gate_based ->
        let d = adj (Liberty.arc_max pa) in
        pa_rise.(lo + pin) <- d;
        pa_fall.(lo + pin) <- d;
        unate.(lo + pin) <- un_scalar
      | Path_based ->
        pa_rise.(lo + pin) <- adj pa.Liberty.rise;
        pa_fall.(lo + pin) <- adj pa.Liberty.fall;
        unate.(lo + pin) <-
          (match Cell_kind.unateness fn pin with
          | Cell_kind.Positive -> un_pos
          | Cell_kind.Negative -> un_neg
          | Cell_kind.Non_unate -> un_non)
    done
  | Netlist.Input | Netlist.Output | Netlist.Seq _ -> ()

(* Worst (rise, fall) at the output of gate [v] given current arrivals;
   counts one relaxation per pin into [pins]. *)
let gate_arrival cv unate pa_rise pa_fall arr_rise arr_fall pins v =
  let best_r = ref neg_infinity and best_f = ref neg_infinity in
  let hi = Compact.fanin_hi cv v in
  for p = Compact.fanin_lo cv v to hi - 1 do
    incr pins;
    let u = Compact.fanin cv p in
    let in_r = arr_rise.(u) and in_f = arr_fall.(u) in
    let code = unate.(p) in
    let out_r, out_f =
      if code = un_pos then (in_r +. pa_rise.(p), in_f +. pa_fall.(p))
      else if code = un_neg then (in_f +. pa_rise.(p), in_r +. pa_fall.(p))
      else if code = un_non then begin
        let worst = Float.max in_r in_f in
        (worst +. pa_rise.(p), worst +. pa_fall.(p))
      end
      else begin
        let worst = Float.max in_r in_f in
        let d = pa_rise.(p) in
        (worst +. d, worst +. d)
      end
    in
    if out_r > !best_r then best_r := out_r;
    if out_f > !best_f then best_f := out_f
  done;
  (!best_r, !best_f)

let check_annot fn_name net = function
  | None -> fun (_ : int) -> 0.
  | Some a ->
    if Array.length a <> Netlist.node_count net then
      invalid_arg (fn_name ^ ": annot length mismatch");
    fun v -> a.(v)

let analyse ?launch ?annot lib mdl net =
  Rar_obs.Trace.span "sta/analyse" @@ fun () ->
  Array.iter
    (fun v ->
      if Netlist.is_seq net v then
        invalid_arg "Sta.analyse: netlist contains sequential nodes")
    (Netlist.seqs net);
  let extra_of = check_annot "Sta.analyse" net annot in
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
    fill_gate_arcs lib mdl net cv (extra_of v) pa_rise pa_fall unate v
  done;
  let arr_rise = Array.make n neg_infinity in
  let arr_fall = Array.make n neg_infinity in
  let topo = Compact.topo cv in
  let pins = ref 0 in
  for i = 0 to n - 1 do
    let v = topo.(i) in
    let tg = Compact.tag cv v in
    if tg = Compact.tag_input then begin
      arr_rise.(v) <- launch_time;
      arr_fall.(v) <- launch_time
    end
    else if tg = Compact.tag_output then begin
      let u = Compact.fanin cv (Compact.fanin_lo cv v) in
      arr_rise.(v) <- arr_rise.(u);
      arr_fall.(v) <- arr_fall.(u)
    end
    else begin
      (* gate: sequential nodes were rejected above *)
      let r, f = gate_arrival cv unate pa_rise pa_fall arr_rise arr_fall pins v in
      arr_rise.(v) <- r;
      arr_fall.(v) <- f
    end
  done;
  Rar_obs.Metrics.add m_pin_relax !pins;
  { net; cv; lib; mdl; launch_time; pa_rise; pa_fall; unate; arr_rise;
    arr_fall; back_all_cache = None }

let patch t ~net ?annot ~dirty_arcs ~seeds () =
  Rar_obs.Trace.span "sta/patch" @@ fun () ->
  let extra_of = check_annot "Sta.patch" net annot in
  let cv = Netlist.compact net in
  let n = Compact.n cv in
  if n <> Compact.n t.cv then invalid_arg "Sta.patch: node count changed";
  for v = 0 to n - 1 do
    if Compact.fanin_lo cv v <> Compact.fanin_lo t.cv v then
      invalid_arg "Sta.patch: pin layout changed"
  done;
  let pa_rise = Array.copy t.pa_rise in
  let pa_fall = Array.copy t.pa_fall in
  let unate = Array.copy t.unate in
  let pins = ref 0 in
  List.iter
    (fun v ->
      fill_gate_arcs t.lib t.mdl net cv (extra_of v) pa_rise pa_fall unate v;
      pins := !pins + (Compact.fanin_hi cv v - Compact.fanin_lo cv v))
    dirty_arcs;
  let need = Array.make n false in
  let changed = Array.make n false in
  List.iter (fun v -> need.(v) <- true) dirty_arcs;
  List.iter (fun v -> need.(v) <- true) seeds;
  let arr_rise = Array.copy t.arr_rise in
  let arr_fall = Array.copy t.arr_fall in
  let topo = Compact.topo cv in
  for i = 0 to n - 1 do
    let v = topo.(i) in
    let tg = Compact.tag cv v in
    if tg = Compact.tag_input then ()
      (* launch time never changes *)
    else begin
      let lo = Compact.fanin_lo cv v and hi = Compact.fanin_hi cv v in
      let touched = ref need.(v) in
      let p = ref lo in
      while (not !touched) && !p < hi do
        if changed.(Compact.fanin cv !p) then touched := true;
        incr p
      done;
      if !touched then begin
        let r, f =
          if tg = Compact.tag_output then begin
            let u = Compact.fanin cv lo in
            incr pins;
            (arr_rise.(u), arr_fall.(u))
          end
          else gate_arrival cv unate pa_rise pa_fall arr_rise arr_fall pins v
        in
        (* Bitwise-equal cutoff: propagation stops where the recomputed
           arrival is exactly the old one (identical float expressions
           over identical inputs downstream stay identical too). *)
        if
          Int64.bits_of_float r <> Int64.bits_of_float arr_rise.(v)
          || Int64.bits_of_float f <> Int64.bits_of_float arr_fall.(v)
        then begin
          arr_rise.(v) <- r;
          arr_fall.(v) <- f;
          changed.(v) <- true
        end
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
  ( { t with net; cv; pa_rise; pa_fall; unate; arr_rise; arr_fall;
      back_all_cache = None },
    changed )

let arrival_arc t v = Liberty.{ rise = t.arr_rise.(v); fall = t.arr_fall.(v) }
let df t v = Float.max t.arr_rise.(v) t.arr_fall.(v)
let arrival_at_sink t v = df t v

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
    let hi = head.(w + 1) in
    for p = head.(w) to hi - 1 do
      let u = fin.(p) in
      let code = t.unate.(p) in
      let c_r, c_f =
        if code = un_pos then (t.pa_rise.(p) +. r, t.pa_fall.(p) +. f)
        else if code = un_neg then (t.pa_fall.(p) +. f, t.pa_rise.(p) +. r)
        else if code = un_non then begin
          let via_rise = t.pa_rise.(p) +. r in
          let via_fall = t.pa_fall.(p) +. f in
          let worst = Float.max via_rise via_fall in
          (worst, worst)
        end
        else begin
          let d = t.pa_rise.(p) in
          let worst = Float.max r f in
          (d +. worst, d +. worst)
        end
      in
      if c_r > dbr.(u) then dbr.(u) <- c_r;
      if c_f > dbf.(u) then dbf.(u) <- c_f
    done
  end

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

let backward_scalar t ~sink =
  let { rise; fall } = backward_packed t ~sink in
  Array.init (Array.length rise) (fun v -> Float.max rise.(v) fall.(v))

let backward_all t =
  match t.back_all_cache with
  | Some r -> r
  | None ->
    Rar_obs.Trace.span "sta/backward_all" @@ fun () ->
    let { rise; fall } =
      backward_from t (fun dbr dbf ->
          Array.iter
            (fun s ->
              dbr.(s) <- 0.;
              dbf.(s) <- 0.)
            (Netlist.outputs t.net))
    in
    let r =
      Array.init (Array.length rise) (fun v -> Float.max rise.(v) fall.(v))
    in
    t.back_all_cache <- Some r;
    r

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
        let code = t.unate.(p) in
        let out_r, out_f =
          if code = un_pos then (in_r +. t.pa_rise.(p), in_f +. t.pa_fall.(p))
          else if code = un_neg then
            (in_f +. t.pa_rise.(p), in_r +. t.pa_fall.(p))
          else if code = un_non then begin
            let worst = Float.max in_r in_f in
            (worst +. t.pa_rise.(p), worst +. t.pa_fall.(p))
          end
          else begin
            let worst = Float.max in_r in_f in
            let d = t.pa_rise.(p) in
            (worst +. d, worst +. d)
          end
        in
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
  let open_t = Clocking.slave_open clocking +. latch.Liberty.ck_to_q in
  let d_to_q = latch.Liberty.d_to_q in
  {
    Liberty.rise = Float.max open_t (t.arr_rise.(u) +. d_to_q);
    fall = Float.max open_t (t.arr_fall.(u) +. d_to_q);
  }

let arrival_with_slave_after t ~clocking ~latch ~u ~v ~db =
  let open_t = Clocking.slave_open clocking +. latch.Liberty.ck_to_q in
  let d_to_q = latch.Liberty.d_to_q in
  let lo_r = Float.max open_t (t.arr_rise.(u) +. d_to_q) in
  let lo_f = Float.max open_t (t.arr_fall.(u) +. d_to_q) in
  let out_r, out_f = through_rf t ~driver:u ~via:v lo_r lo_f in
  Float.max (out_r +. db.rise.(v)) (out_f +. db.fall.(v))

(* ------------------------------------------------------------------ *)
(* Per-sink cone scratch                                               *)
(* ------------------------------------------------------------------ *)

type cone = {
  mutable epoch : int;
  seen : int array;        (* [= epoch]: node is in the loaded cone *)
  nodes : int array;       (* [0 .. size-1]: the cone, sink first *)
  mutable size : int;
  stack_v : int array;     (* DFS stack: node ... *)
  stack_p : int array;     (* ... and its next fanin pin position *)
  cone_db : db;            (* D^b; entries valid on cone nodes only *)
  a_pin : float array;     (* per fanin pin position: A(fanin, node, sink) *)
}

let cone_scratch t =
  let n = Compact.n t.cv in
  {
    epoch = 0;
    seen = Array.make n 0;
    nodes = Array.make n 0;
    size = 0;
    stack_v = Array.make n 0;
    stack_p = Array.make n 0;
    cone_db =
      { rise = Array.make n neg_infinity; fall = Array.make n neg_infinity };
    a_pin = Array.make (Int.max 1 (Compact.fanin_lo t.cv n)) neg_infinity;
  }

let cone_size c = c.size
let cone_nodes c = c.nodes
let cone_db c = c.cone_db

let load_cone t c ~sink =
  check_sink "Sta.load_cone" t sink;
  let cv = t.cv in
  if Array.length c.seen <> Compact.n cv then
    invalid_arg "Sta.load_cone: scratch built for another netlist";
  c.epoch <- c.epoch + 1;
  let ep = c.epoch in
  let seen = c.seen and nodes = c.nodes in
  let head = cv.Compact.fanin_head and fin = cv.Compact.fanin in
  let stack_v = c.stack_v and stack_p = c.stack_p in
  (* Iterative DFS from the sink along fanin edges; the reverse
     postorder puts every cone node before its fanins (sink first),
     exactly the processing order the backward DP needs, so the DP
     touches only the |cone| nodes instead of scanning all n. *)
  seen.(sink) <- ep;
  stack_v.(0) <- sink;
  stack_p.(0) <- head.(sink);
  let top = ref 1 and k = ref 0 in
  while !top > 0 do
    let v = stack_v.(!top - 1) in
    let p = stack_p.(!top - 1) in
    if p < head.(v + 1) then begin
      stack_p.(!top - 1) <- p + 1;
      let u = fin.(p) in
      if seen.(u) <> ep then begin
        seen.(u) <- ep;
        stack_v.(!top) <- u;
        stack_p.(!top) <- head.(u);
        incr top
      end
    end
    else begin
      nodes.(!k) <- v;
      incr k;
      decr top
    end
  done;
  let size = !k in
  for i = 0 to (size / 2) - 1 do
    let j = size - 1 - i in
    let x = nodes.(i) in
    nodes.(i) <- nodes.(j);
    nodes.(j) <- x
  done;
  c.size <- size;
  (* Only cone entries are reset: the DP reads and writes nothing else. *)
  let dbr = c.cone_db.rise and dbf = c.cone_db.fall in
  for i = 0 to size - 1 do
    let v = nodes.(i) in
    dbr.(v) <- neg_infinity;
    dbf.(v) <- neg_infinity
  done;
  dbr.(sink) <- 0.;
  dbf.(sink) <- 0.;
  for i = 0 to size - 1 do
    relax_back t dbr dbf nodes.(i)
  done

(* ------------------------------------------------------------------ *)
(* Slave arcs, hoisted out of the per-sink kernel                      *)
(* ------------------------------------------------------------------ *)

type slave_arcs = { out_rise : float array; out_fall : float array }

(* [latch_out u] pushed through the worst of the pins of [v] that [u]
   drives, for every fanin pin [p] of every gate or sink [v] — the half
   of Eq. 5 that does not depend on the sink. *)
let slave_arcs t ~clocking ~latch =
  let cv = t.cv in
  let n = Compact.n cv in
  let n_pins = Int.max 1 (Compact.fanin_lo cv n) in
  let out_rise = Array.make n_pins neg_infinity in
  let out_fall = Array.make n_pins neg_infinity in
  for v = 0 to n - 1 do
    (* analyse rejects sequential nodes: [v] is a gate or a sink *)
    if Compact.tag cv v <> Compact.tag_input then
      for p = Compact.fanin_lo cv v to Compact.fanin_hi cv v - 1 do
        let u = Compact.fanin cv p in
        let arc = through t ~driver:u ~via:v (latch_out t ~clocking ~latch u) in
        out_rise.(p) <- arc.Liberty.rise;
        out_fall.(p) <- arc.Liberty.fall
      done
  done;
  { out_rise; out_fall }

let slave_delay_bound t ~clocking ~latch =
  let early a = a < t.launch_time in
  if Array.exists early t.arr_rise || Array.exists early t.arr_fall then None
  else
    Some
      (Float.max
         (Clocking.slave_open clocking +. latch.Liberty.ck_to_q
        -. t.launch_time)
         latch.Liberty.d_to_q)

(* Eq. 5 per cone pin from the hoisted arcs: one add pair and a max. *)
let cone_slave_arrivals t c arcs =
  let head = t.cv.Compact.fanin_head and tags = t.cv.Compact.tags in
  let out_r = arcs.out_rise and out_f = arcs.out_fall in
  let dbr = c.cone_db.rise and dbf = c.cone_db.fall and a_pin = c.a_pin in
  for i = 0 to c.size - 1 do
    let v = c.nodes.(i) in
    if tags.(v) <> Compact.tag_input then begin
      let r = dbr.(v) and f = dbf.(v) in
      for p = head.(v) to head.(v + 1) - 1 do
        a_pin.(p) <- Float.max (out_r.(p) +. r) (out_f.(p) +. f)
      done
    end
  done;
  a_pin

let forward_with_latches t ~clocking ~latch ~latched =
  let open_t = Clocking.slave_open clocking +. latch.Liberty.ck_to_q in
  let d_to_q = latch.Liberty.d_to_q in
  let cv = t.cv in
  let n = Compact.n cv in
  let arr_r = Array.make n neg_infinity in
  let arr_f = Array.make n neg_infinity in
  let topo = Compact.topo cv in
  for i = 0 to n - 1 do
    let v = topo.(i) in
    let tg = Compact.tag cv v in
    if tg = Compact.tag_input then begin
      arr_r.(v) <- t.launch_time;
      arr_f.(v) <- t.launch_time
    end
    else if tg = Compact.tag_output then begin
      let u = Compact.fanin cv (Compact.fanin_lo cv v) in
      if latched ~v ~pin:0 then begin
        arr_r.(v) <- Float.max open_t (arr_r.(u) +. d_to_q);
        arr_f.(v) <- Float.max open_t (arr_f.(u) +. d_to_q)
      end
      else begin
        arr_r.(v) <- arr_r.(u);
        arr_f.(v) <- arr_f.(u)
      end
    end
    else begin
      let best_r = ref neg_infinity and best_f = ref neg_infinity in
      let lo = Compact.fanin_lo cv v in
      let hi = Compact.fanin_hi cv v in
      for p = lo to hi - 1 do
        let u = Compact.fanin cv p in
        let in_r, in_f =
          if latched ~v ~pin:(p - lo) then
            ( Float.max open_t (arr_r.(u) +. d_to_q),
              Float.max open_t (arr_f.(u) +. d_to_q) )
          else (arr_r.(u), arr_f.(u))
        in
        let code = t.unate.(p) in
        let out_r, out_f =
          if code = un_pos then (in_r +. t.pa_rise.(p), in_f +. t.pa_fall.(p))
          else if code = un_neg then
            (in_f +. t.pa_rise.(p), in_r +. t.pa_fall.(p))
          else if code = un_non then begin
            let worst = Float.max in_r in_f in
            (worst +. t.pa_rise.(p), worst +. t.pa_fall.(p))
          end
          else begin
            let worst = Float.max in_r in_f in
            let d = t.pa_rise.(p) in
            (worst +. d, worst +. d)
          end
        in
        if out_r > !best_r then best_r := out_r;
        if out_f > !best_f then best_f := out_f
      done;
      arr_r.(v) <- !best_r;
      arr_f.(v) <- !best_f
    end
  done;
  Array.init n (fun v -> Liberty.{ rise = arr_r.(v); fall = arr_f.(v) })

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
        let code = t.unate.(p) in
        let out_r, out_f =
          if code = un_pos then (in_r +. t.pa_rise.(p), in_f +. t.pa_fall.(p))
          else if code = un_neg then
            (in_f +. t.pa_rise.(p), in_r +. t.pa_fall.(p))
          else if code = un_non then begin
            let worst = Float.max in_r in_f in
            (worst +. t.pa_rise.(p), worst +. t.pa_fall.(p))
          end
          else begin
            let worst = Float.max in_r in_f in
            let d = t.pa_rise.(p) in
            (worst +. d, worst +. d)
          end
        in
        let v_arr = match edge with `Rise -> out_r | `Fall -> out_f in
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
       (if arrival > limit +. 1e-9 then "VIOLATED"
        else if arrival > period +. 1e-9 then
          "inside resiliency window (needs error detection)"
        else "met before the window"));
  Buffer.contents buf
