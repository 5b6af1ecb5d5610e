(** Minimal JSON tree: enough to emit the machine-readable report
    formats ([rar-tables/1], [rar-run/1]) and to parse them back in
    tests — no external dependency.

    Rendering is deterministic: object fields keep insertion order and
    floats are printed with ["%.12g"], so equal values always render to
    equal bytes (the cross-job-count determinism tests rely on this). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact rendering (no insignificant whitespace). *)

val of_string : string -> (t, string) result
(** Strict parser for the subset this module emits: UTF-8 is passed
    through untouched; [\uXXXX] escapes decode to UTF-8. Numbers
    without [.], [e] or [E] become [Int]. Errors render as
    ["<reason> at offset <n>"] (the historical format); use
    {!of_string_diag} for located diagnostics. *)

val of_string_diag : ?file:string -> string -> (t, Diag.t) result
(** {!of_string} with a structured, positioned error: the same strict
    grammar, but failures carry the 1-based line/column of the
    offending byte (clamped to end-of-input for truncation errors) in
    a {!Diag.t}, matching the hardened netlist/liberty parsers. The
    serve protocol uses this to point clients at the broken byte of a
    request line. *)

val member : string -> t -> t option
(** Field lookup on [Obj]; [None] on anything else. *)

val to_float : t -> float option
(** Numeric value of [Int] or [Float]. *)

(** {1 Typed accessors}

    Small request-parsing helpers: total functions from a JSON tree to
    the OCaml value a field is expected to hold, [None] on any shape
    mismatch. [member_*] compose {!member} with the corresponding
    [to_*]. *)

val to_string_opt : t -> string option
val to_int_opt : t -> int option
val to_bool_opt : t -> bool option
val member_string : string -> t -> string option
val member_float : string -> t -> float option
val member_int : string -> t -> int option
val member_bool : string -> t -> bool option
