module Netlist = Rar_netlist.Netlist
module Clocking = Rar_sta.Clocking
module Vec = Rar_util.Vec

type t = {
  design : Sim.design;
  compiled : Sim.compiled;
  events : (float * int * bool) Vec.t; (* absolute time, node, value *)
  mutable cycles : int;
  initial : (int, bool) Hashtbl.t; (* first-seen value per node *)
}

let create design =
  {
    design;
    compiled = Sim.compile design;
    events = Vec.create ();
    cycles = 0;
    initial = Hashtbl.create 64;
  }

let cycle_span design =
  (* one full period plus the resiliency window, so consecutive cycles
     never overlap in the dump *)
  Clocking.max_delay design.Sim.clocking *. 1.1

let record_cycle t ~prev ~next =
  let offset = float_of_int t.cycles *. cycle_span t.design in
  t.cycles <- t.cycles + 1;
  Sim.run_cycle
    ~on_event:(fun ~time ~node ~value ->
      if not (Hashtbl.mem t.initial node) then
        Hashtbl.replace t.initial node (not value);
      Vec.add_last t.events (offset +. time, node, value))
    t.compiled ~prev ~next

(* Compact VCD identifier codes: printable ASCII 33..126. *)
let code_of i =
  let base = 94 in
  let rec go i acc =
    let c = Char.chr (33 + (i mod base)) in
    let acc = String.make 1 c ^ acc in
    if i < base then acc else go ((i / base) - 1) acc
  in
  go i ""

let sanitize name =
  String.map
    (fun ch ->
      match ch with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> ch
      | _ -> '_')
    name

let to_string t =
  let net = t.design.Sim.staged in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "$date rar simulation trace $end\n";
  Buffer.add_string buf "$timescale 1ps $end\n";
  Buffer.add_string buf (Printf.sprintf "$scope module %s $end\n"
                           (sanitize (Netlist.name net)));
  (* Only dump nodes that ever changed (plus all sinks). *)
  let active = Hashtbl.create 64 in
  Vec.iter (fun (_, node, _) -> Hashtbl.replace active node ()) t.events;
  Array.iter (fun s -> Hashtbl.replace active s ()) (Netlist.outputs net);
  let ids = Hashtbl.create 64 in
  let next_id = ref 0 in
  Hashtbl.iter
    (fun node () ->
      let code = code_of !next_id in
      incr next_id;
      Hashtbl.replace ids node code;
      Buffer.add_string buf
        (Printf.sprintf "$var wire 1 %s %s $end\n" code
           (sanitize (Netlist.node_name net node))))
    active;
  Buffer.add_string buf "$upscope $end\n$enddefinitions $end\n";
  Buffer.add_string buf "$dumpvars\n";
  Hashtbl.iter
    (fun node code ->
      let v = Option.value ~default:false (Hashtbl.find_opt t.initial node) in
      Buffer.add_string buf (Printf.sprintf "%c%s\n" (if v then '1' else '0') code))
    ids;
  Buffer.add_string buf "$end\n";
  let events =
    Vec.to_array t.events
  in
  Array.sort (fun (a, _, _) (b, _, _) -> compare a b) events;
  let last_time = ref neg_infinity in
  Array.iter
    (fun (time, node, value) ->
      let ps = int_of_float (Float.round (time *. 1000.)) in
      if float_of_int ps <> !last_time then begin
        Buffer.add_string buf (Printf.sprintf "#%d\n" ps);
        last_time := float_of_int ps
      end;
      match Hashtbl.find_opt ids node with
      | Some code ->
        Buffer.add_string buf
          (Printf.sprintf "%c%s\n" (if value then '1' else '0') code)
      | None -> ())
    events;
  Buffer.contents buf

let write t path =
  let oc = open_out path in
  output_string oc (to_string t);
  close_out oc
