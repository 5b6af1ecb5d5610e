(** Liberty (".lib") reader and writer for the generic-CMOS subset.

    The paper's flow consumes a commercial Liberty library; this module
    lets real ".lib" files (restricted to the classic linear delay
    model) drive every engine in the repo, and dumps our synthetic
    library in the same syntax.

    Supported subset:

    - [library (name) { ... }] with [cell] groups;
    - per cell: [area], input [pin] groups with [capacitance], one
      output [pin] with a [function] attribute (boolean expression over
      the input pins using [! ' & * | + ^] and parentheses) and
      [timing] groups carrying the generic-CMOS attributes
      [intrinsic_rise], [intrinsic_fall], [rise_resistance],
      [fall_resistance] (worst over [related_pin]s is taken — our cell
      model is per-cell with a positional pin derate);
    - sequential cells: a [latch] or [ff] group marks the cell; the
      writer/reader use the attributes [rar_d_to_q], [rar_ck_to_q] and
      a [setup_rising] constraint to carry the latch timing (real
      libraries express these as timing arcs; the simplified carrier
      keeps round-trips faithful);
    - cell functions are matched to this project's {!Cell_kind}s by
      truth table, and drive strengths recovered from a [_X<k>] /
      [_x<k>] cell-name suffix (default 1).

    Unsupported constructs (NLDM tables, buses, attributes we do not
    model) are skipped group-wise, so many vendor files parse with the
    linear-model information intact. *)

val print : Liberty.t -> string
val write_file : string -> Liberty.t -> unit

val parse_diag : ?file:string -> string -> (Liberty.t, Rar_util.Diag.t) result
(** Parse from a string. The error carries the 1-based line and, for
    tokenizer errors, the 1-based column (0 when the error is not
    attached to a position). Never raises on malformed input. A
    [truncate] fault profile ({!Rar_resilience.Faults}) cuts the input
    before parsing. *)

val parse_file_diag : string -> (Liberty.t, Rar_util.Diag.t) result
(** Like {!parse_diag} but reads the file first; an unreadable file
    becomes a diagnostic, not a [Sys_error]. *)
