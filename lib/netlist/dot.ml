let shape net v =
  match Netlist.kind net v with
  | Netlist.Input -> "triangle"
  | Netlist.Output -> "invtriangle"
  | Netlist.Seq _ -> "box"
  | Netlist.Gate _ -> "ellipse"

let label net v =
  match Netlist.kind net v with
  | Netlist.Gate { fn; drive } ->
    if drive = 1 then
      Printf.sprintf "%s\\n%s" (Netlist.node_name net v) (Cell_kind.name fn)
    else
      Printf.sprintf "%s\\n%s x%d" (Netlist.node_name net v) (Cell_kind.name fn)
        drive
  | Netlist.Seq Netlist.Master -> Netlist.node_name net v ^ "\\nmaster"
  | Netlist.Seq Netlist.Slave -> Netlist.node_name net v ^ "\\nslave"
  | Netlist.Seq Netlist.Flop -> Netlist.node_name net v ^ "\\ndff"
  | Netlist.Input | Netlist.Output -> Netlist.node_name net v

let of_netlist net =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "digraph %S {\n  rankdir=LR;\n" (Netlist.name net));
  for v = 0 to Netlist.node_count net - 1 do
    Buffer.add_string buf
      (Printf.sprintf "  n%d [label=\"%s\", shape=%s];\n" v (label net v)
         (shape net v))
  done;
  Netlist.iter_edges net (fun u v ->
      Buffer.add_string buf (Printf.sprintf "  n%d -> n%d;\n" u v));
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let write_file path net =
  let oc = open_out path in
  output_string oc (of_netlist net);
  close_out oc
