(** VCD (value change dump) writer for simulation traces.

    Records one or more {!Sim.run_cycle} runs and writes a standard
    VCD file viewable in GTKWave & co. Node values are dumped as
    1-bit wires named after the netlist nodes; cycles are laid out
    back-to-back, each offset by one clock period plus the resiliency
    window (so a trace shows exactly where each capture lands relative
    to the window). *)

type t

val create : Sim.design -> t
(** Compiles the design ({!Sim.compile}) once for every cycle the trace
    records. *)

val record_cycle :
  t -> prev:bool array -> next:bool array -> Sim.cycle_result
(** Run one cycle through {!Sim.run_cycle}, appending its events to the
    trace. *)

val write : t -> string -> unit
(** Write the accumulated trace. [timescale] is 1 ps; event times are
    rounded to it. *)

val to_string : t -> string
