(** Typed table rows: every report table is built once as [table] —
    named, aligned columns over typed cells — and rendered from that
    single value into text, CSV and JSON, so the three formats can
    never disagree on a cell. *)

module Json = Rar_util.Json

type cell =
  | Str of string
  | Int of int
  | Float of { v : float; decimals : int }  (** fixed-point *)
  | Pct of float  (** percentage, 2 decimals *)
  | Time of float  (** seconds; JSON-tagged so tests can mask it *)
  | Empty

type row = Cells of cell list | Rule

type table = {
  number : int;
  title : string;
  columns : (string * Text_table.align) list;
  rows : row list;
}

val float' : ?decimals:int -> float -> cell
(** [Float] with the report default of 2 decimals. *)

val map_cells : (cell -> cell) -> table -> table
(** Cell-wise rewrite (tests use it to mask wall-clock cells). *)

val render_text : table -> string
val render_csv : table -> string
(** RFC 4180: cells containing commas, quotes or newlines are quoted,
    quotes doubled. Rules are dropped. *)

val to_json : table -> Json.t
(** ["rar-tables/1"]: [schema], [number], [title],
    [columns] ([{"name"; "align"}], align ["l"]/["r"]) and [rows]
    (each [{"cells": [...]}] or [{"rule": true}]). A numeric cell
    serialises as the number the text rendering shows, so JSON
    consumers and text readers agree; [Time] becomes
    [{"time_s": s}]; [Empty] is [null]. *)

val render_json : table -> string
