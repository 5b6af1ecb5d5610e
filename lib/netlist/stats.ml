type t = {
  n_inputs : int;
  n_outputs : int;
  n_gates : int;
  n_flops : int;
  n_masters : int;
  n_slaves : int;
  depth : int;
  avg_fanin : float;
  avg_fanout : float;
  fn_histogram : (Cell_kind.t * int) list;
}

let compute net =
  let n_flops = ref 0 and n_masters = ref 0 and n_slaves = ref 0 in
  let fanin_total = ref 0 in
  let fanout_total = ref 0 and driver_count = ref 0 in
  let hist = Hashtbl.create 16 in
  let c = Netlist.compact net in
  for v = 0 to Netlist.node_count net - 1 do
    (match Netlist.kind net v with
    | Netlist.Seq Netlist.Flop -> incr n_flops
    | Netlist.Seq Netlist.Master -> incr n_masters
    | Netlist.Seq Netlist.Slave -> incr n_slaves
    | Netlist.Gate { fn; _ } ->
      fanin_total := !fanin_total + Netlist.Compact.fanin_deg c v;
      Hashtbl.replace hist fn (1 + Option.value ~default:0 (Hashtbl.find_opt hist fn))
    | Netlist.Input | Netlist.Output -> ());
    match Netlist.kind net v with
    | Netlist.Output -> ()
    | _ ->
      incr driver_count;
      fanout_total := !fanout_total + Netlist.fanout_count net v
  done;
  let n_gates = Array.length (Netlist.gates net) in
  {
    n_inputs = Array.length (Netlist.inputs net);
    n_outputs = Array.length (Netlist.outputs net);
    n_gates;
    n_flops = !n_flops;
    n_masters = !n_masters;
    n_slaves = !n_slaves;
    depth = Netlist.comb_depth net;
    avg_fanin =
      (if n_gates = 0 then 0. else float_of_int !fanin_total /. float_of_int n_gates);
    avg_fanout =
      (if !driver_count = 0 then 0.
       else float_of_int !fanout_total /. float_of_int !driver_count);
    fn_histogram =
      List.sort
        (fun (a, _) (b, _) -> compare a b)
        (Hashtbl.fold (fun k c acc -> (k, c) :: acc) hist []);
  }

let pp ppf t =
  Format.fprintf ppf
    "@[<v>pi=%d po=%d gates=%d flops=%d masters=%d slaves=%d depth=%d@ \
     avg_fanin=%.2f avg_fanout=%.2f@ kinds: %a@]"
    t.n_inputs t.n_outputs t.n_gates t.n_flops t.n_masters t.n_slaves t.depth
    t.avg_fanin t.avg_fanout
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       (fun ppf (k, c) -> Format.fprintf ppf "%a=%d" Cell_kind.pp k c))
    t.fn_histogram
