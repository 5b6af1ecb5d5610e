(** ISCAS89 ".bench" reader and writer.

    The textual format used by the ISCAS89 sequential benchmarks:

    {v
    # comment
    INPUT(G0)
    OUTPUT(G17)
    G10 = DFF(G14)
    G11 = NAND(G0, G10)
    v}

    DFF lines become [Seq Flop] nodes; the non-standard MLATCH/SLATCH
    operators (emitted by the writer for converted two-phase designs)
    become [Seq Master]/[Seq Slave], so latch roles survive a round
    trip. Fanout-only names referenced before definition are handled
    (the format has no ordering rule).
    Because a ".bench" OUTPUT names an existing signal rather than a
    dedicated node, the writer/reader pair round-trips through explicit
    [Output] nodes named ["<signal>$po"] when the output signal also
    feeds logic, and plain where it does not. *)

val parse_diag : ?file:string -> string -> (Netlist.t, Rar_util.Diag.t) result
(** Parse from a string. The text is scanned once by byte offsets:
    keywords and operators (case-insensitive, ISCAS89 aliases
    included) are matched in place and signal names are looked up as
    spans of the text, so the only strings allocated are the node
    names the netlist keeps. Node ids follow the text: inputs, gates
    and latches in line order, then one output node per OUTPUT line.
    Within a line, blanks around names are ignored. The argument list
    runs from a directive's first ['('] (an assignment's first ['(']
    after its ['=']) to the [')'] that matches it, so a name may hold
    balanced parentheses ([INPUT((a))] names ["(a)"]); only blanks or
    a ['#'] comment may follow it. A signal listed by two OUTPUT lines
    is an error at the second.

    The error carries the 1-based line, the column of the offending
    line's first content character (of the stray text, for text after
    the argument list; 0 when the error is not attached to a line) and
    the message. Of several errors the last one
    recorded wins: line errors are recorded in line order, then
    undefined fanins in reverse line order (the first undefined
    argument of a line), then undefined OUTPUTs (line 0); a structural
    failure of the freeze (line 0) is reported only for an otherwise
    clean text. Never raises on malformed input. A [truncate] fault
    profile ({!Rar_resilience.Faults}) cuts the input before parsing.
    Runs under a [bench_io/parse] trace span. *)

val parse_file_diag : string -> (Netlist.t, Rar_util.Diag.t) result
(** Like {!parse_diag} but reads [path] first; an unreadable file
    becomes a diagnostic, not a [Sys_error]. *)

val print : Netlist.t -> string
(** Render a netlist (combinational gates, sequential elements, PIs,
    POs) back to ".bench" text. Flops are rendered as [DFF]; master and
    slave latches as [MLATCH]/[SLATCH], which {!parse_diag} maps back
    to the same roles — a converted two-phase design round-trips
    exactly. Gates whose kind has no ".bench" spelling (AOI/OAI/MUX)
    are emitted with their library names, which {!parse_diag} also
    accepts. *)

val write_file : string -> Netlist.t -> unit
