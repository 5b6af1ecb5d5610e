(** Structural Verilog reader/writer (gate-primitive subset).

    The writer emits one module per netlist using Verilog's built-in
    gate primitives where they exist ([and], [nand], [or], [nor],
    [xor], [xnor], [not], [buf]; output port first) and instance-style
    cells for the rest ([aoi21], [oai21], [mux2] — inputs in pin
    order — and the sequential cells [dff], [latch_m], [latch_s] with
    ports [(Q, D)]). Non-unit drive strengths are recorded as an
    attribute, e.g. [(* drive = 2 *) nand g1 (y, a, b);].

    The reader accepts exactly that subset (plus whitespace/comments),
    which is enough to round-trip any netlist this project produces and
    to import gate-level netlists written in the same style. *)

val print : Netlist.t -> string

val parse_diag : ?file:string -> string -> (Netlist.t, Rar_util.Diag.t) result
(** Parse from a string. The error carries the 1-based line and, for
    tokenizer errors, the 1-based column (0 when the error is not
    attached to a position). Never raises on malformed input. A
    [truncate] fault profile ({!Rar_resilience.Faults}) cuts the input
    before parsing. *)

val parse_file_diag : string -> (Netlist.t, Rar_util.Diag.t) result
(** Like {!parse_diag} but reads the file first; an unreadable file
    becomes a diagnostic, not a [Sys_error]. *)
