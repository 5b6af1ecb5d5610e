(** Graphviz DOT export, for inspecting small circuits and retiming
    results (the Fig. 4/5 walkthrough renders through this). *)

val of_netlist : Netlist.t -> string
(** Render nodes shaped by kind (inputs as triangles, outputs as
    inverted triangles, sequential elements as boxes, gates as
    ellipses). *)

val write_file : string -> Netlist.t -> unit
