(** Located parser diagnostics.

    The parsers of [Bench_io], [Liberty_io] and [Verilog_io] report
    errors as a structured value instead of a pre-rendered string, so
    callers (the CLI, fuzzers, a future LSP)
    can point at the offending position. [line] and [col] are 1-based;
    0 means unknown and is omitted from the rendering. *)

type t = {
  file : string option;  (** source path, when parsing from a file *)
  line : int;  (** 1-based; 0 = unknown *)
  col : int;  (** 1-based; 0 = unknown *)
  msg : string;  (** reason, without any location prefix *)
}

val make : ?file:string -> ?line:int -> ?col:int -> string -> t

val to_string : t -> string
(** GCC-style one-liner: ["file:line:col: msg"], omitting the unknown
    parts. *)

val pp : Format.formatter -> t -> unit

val read_file : string -> (string, t) result
(** The whole contents of [path]; an unreadable file becomes an
    unlocated diagnostic carrying the [Sys_error] message. *)
