(** Graphviz DOT export, for inspecting small circuits and retiming
    results (the Fig. 4/5 walkthrough renders through this). *)

val write_file : string -> Netlist.t -> unit
(** [write_file path net] writes [net] as a DOT graph, nodes shaped by
    kind (inputs as triangles, outputs as inverted triangles,
    sequential elements as boxes, gates as ellipses). *)
