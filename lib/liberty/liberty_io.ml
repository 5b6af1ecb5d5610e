module Cell_kind = Rar_netlist.Cell_kind
module Diag = Rar_util.Diag
module Faults = Rar_resilience.Faults

(* ------------------------------------------------------------------ *)
(* Group-tree representation of a Liberty file                         *)
(* ------------------------------------------------------------------ *)

type group = {
  gname : string;
  args : string list;
  attrs : (string * string) list; (* declaration order *)
  subs : group list;
}

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

let kind_cell_name fn drive =
  Printf.sprintf "%s_X%d" (String.uppercase_ascii (Cell_kind.name fn)) drive

let function_of_kind fn =
  match fn with
  | Cell_kind.Buf -> "A0"
  | Cell_kind.Inv -> "!A0"
  | Cell_kind.And -> "(A0 & A1)"
  | Cell_kind.Nand -> "!(A0 & A1)"
  | Cell_kind.Or -> "(A0 | A1)"
  | Cell_kind.Nor -> "!(A0 | A1)"
  | Cell_kind.Xor -> "(A0 ^ A1)"
  | Cell_kind.Xnor -> "!(A0 ^ A1)"
  | Cell_kind.Aoi21 -> "!((A0 & A1) | A2)"
  | Cell_kind.Oai21 -> "!((A0 | A1) & A2)"
  | Cell_kind.Mux2 -> "((A0 & !A2) | (A1 & A2))"

let written_arity fn =
  match Cell_kind.arity fn with Some a -> a | None -> 2

let print lib =
  let buf = Buffer.create 4096 in
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  p "/* generated by rar — generic-CMOS (linear delay) subset */\n";
  p "library (%s) {\n" (Liberty.name lib);
  p "  time_unit : \"1ns\";\n";
  p "  rar_wire_cap_per_fanout : %g;\n" (Liberty.wire_cap_per_fanout lib);
  List.iter
    (fun (c : Liberty.comb_cell) ->
      let arity = written_arity c.Liberty.fn in
      p "  cell (%s) {\n" (kind_cell_name c.Liberty.fn c.Liberty.drive);
      p "    area : %g;\n" c.Liberty.area;
      p "    rar_pin_derate : %g;\n" c.Liberty.pin_derate;
      for i = 0 to arity - 1 do
        p "    pin (A%d) { direction : input; capacitance : %g; }\n" i
          c.Liberty.input_cap
      done;
      p "    pin (Y) {\n";
      p "      direction : output;\n";
      p "      function : \"%s\";\n" (function_of_kind c.Liberty.fn);
      p "      timing () {\n";
      p "        related_pin : \"%s\";\n"
        (String.concat " " (List.init arity (Printf.sprintf "A%d")));
      p "        intrinsic_rise : %g;\n" c.Liberty.intrinsic.Liberty.rise;
      p "        intrinsic_fall : %g;\n" c.Liberty.intrinsic.Liberty.fall;
      p "        rise_resistance : %g;\n" c.Liberty.load_slope.Liberty.rise;
      p "        fall_resistance : %g;\n" c.Liberty.load_slope.Liberty.fall;
      p "      }\n";
      p "    }\n";
      p "  }\n")
    (Liberty.all_cells lib);
  let seq kind (s : Liberty.seq_cell) =
    p "  cell (%s) {\n" (String.uppercase_ascii kind);
    p "    area : %g;\n" s.Liberty.seq_area;
    p "    %s (IQ, IQN) { }\n" kind;
    p "    rar_d_to_q : %g;\n" s.Liberty.d_to_q;
    p "    rar_ck_to_q : %g;\n" s.Liberty.ck_to_q;
    p "    rar_setup : %g;\n" s.Liberty.setup;
    p "    pin (D) { direction : input; capacitance : %g; }\n"
      s.Liberty.seq_input_cap;
    p "    pin (Q) { direction : output; }\n";
    p "  }\n"
  in
  seq "latch" (Liberty.latch lib);
  seq "ff" (Liberty.flop lib);
  p "}\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

type token = Tid of string | Tstr of string | Tsym of char

let tokenize text =
  let toks = ref [] in
  let n = String.length text in
  let i = ref 0 in
  let line = ref 1 in
  let bol = ref 0 in
  (* beginning-of-line index, for error columns *)
  let err = ref None in
  let fail_at pos msg =
    err := Some (Diag.make ~line:!line ~col:(pos - !bol + 1) msg)
  in
  while !i < n && !err = None do
    let c = text.[!i] in
    if c = '\n' then begin incr line; incr i; bol := !i end
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '\\' && !i + 1 < n && text.[!i + 1] = '\n' then begin
      incr line;
      i := !i + 2;
      bol := !i
    end
    else if c = '/' && !i + 1 < n && text.[!i + 1] = '*' then begin
      let rec skip j =
        if j + 1 >= n then None
        else if text.[j] = '*' && text.[j + 1] = '/' then Some (j + 2)
        else begin
          if text.[j] = '\n' then begin incr line; bol := j + 1 end;
          skip (j + 1)
        end
      in
      match skip (!i + 2) with
      | Some j -> i := j
      | None -> fail_at n "unterminated comment"
    end
    else if c = '/' && !i + 1 < n && text.[!i + 1] = '/' then
      while !i < n && text.[!i] <> '\n' do incr i done
    else if c = '"' then begin
      let j = ref (!i + 1) in
      while !j < n && text.[!j] <> '"' do
        if text.[!j] = '\n' then begin incr line; bol := !j + 1 end;
        incr j
      done;
      if !j >= n then fail_at n "unterminated string"
      else begin
        toks := (Tstr (String.sub text (!i + 1) (!j - !i - 1)), !line) :: !toks;
        i := !j + 1
      end
    end
    else if
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' | '+' -> true
      | _ -> false
    then begin
      let j = ref !i in
      while
        !j < n
        &&
        match text.[!j] with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' | '+' -> true
        | _ -> false
      do
        incr j
      done;
      toks := (Tid (String.sub text !i (!j - !i)), !line) :: !toks;
      i := !j
    end
    else begin
      toks := (Tsym c, !line) :: !toks;
      incr i
    end
  done;
  match !err with
  | Some e -> Error e
  | None -> Ok (List.rev !toks)

(* ------------------------------------------------------------------ *)
(* Group parser                                                        *)
(* ------------------------------------------------------------------ *)

exception Parse_error of Diag.t

let perr ?line msg = Parse_error (Diag.make ?line msg)

let parse_groups toks =
  let toks = ref toks in
  let peek () = match !toks with (t, _) :: _ -> Some t | [] -> None in
  let line () = match !toks with (_, l) :: _ -> l | [] -> 0 in
  let next () =
    match !toks with
    | (t, _) :: rest ->
      toks := rest;
      t
    | [] -> raise (perr "unexpected end of file")
  in
  let fail msg = raise (perr ~line:(line ()) msg) in
  let expect sym =
    match next () with
    | Tsym c when c = sym -> ()
    | _ -> fail (Printf.sprintf "expected '%c'" sym)
  in
  (* after NAME '(': comma-separated args until ')' *)
  let rec parse_args acc =
    match next () with
    | Tsym ')' -> List.rev acc
    | Tsym ',' -> parse_args acc
    | Tid s | Tstr s -> parse_args (s :: acc)
    | Tsym c -> fail (Printf.sprintf "unexpected '%c' in arguments" c)
  in
  (* attribute value: tokens until ';' joined by spaces *)
  let rec parse_value acc =
    match next () with
    | Tsym ';' -> String.concat " " (List.rev acc)
    | Tid s | Tstr s -> parse_value (s :: acc)
    | Tsym c -> parse_value (String.make 1 c :: acc)
  in
  let rec parse_group name =
    let args = parse_args [] in
    match peek () with
    | Some (Tsym '{') ->
      ignore (next ());
      let attrs = ref [] and subs = ref [] in
      let rec items () =
        match peek () with
        | Some (Tsym '}') ->
          ignore (next ())
        | Some (Tid id) -> (
          ignore (next ());
          match peek () with
          | Some (Tsym ':') ->
            ignore (next ());
            attrs := (id, parse_value []) :: !attrs;
            items ()
          | Some (Tsym '(') ->
            ignore (next ());
            (match parse_group id with
            | Some g -> subs := g :: !subs
            | None -> ());
            items ()
          | _ -> fail (Printf.sprintf "expected ':' or '(' after %S" id))
        | Some (Tsym ';') ->
          ignore (next ());
          items ()
        | Some _ -> fail "expected attribute or group"
        | None -> fail "unterminated group"
      in
      items ();
      Some { gname = name; args; attrs = List.rev !attrs; subs = List.rev !subs }
    | Some (Tsym ';') ->
      (* statement form: define(...) ; — record as empty group *)
      ignore (next ());
      Some { gname = name; args; attrs = []; subs = [] }
    | _ ->
      (* bare "name(args)" without body or semicolon: tolerate *)
      Some { gname = name; args; attrs = []; subs = [] }
  in
  match next () with
  | Tid "library" ->
    expect '(';
    (match parse_group "library" with
    | Some g -> g
    | None -> fail "empty library")
  | _ -> fail "expected 'library ('"

(* ------------------------------------------------------------------ *)
(* Boolean function expressions                                        *)
(* ------------------------------------------------------------------ *)

(* Grammar: or := xor (('|'|'+') xor)* ; xor := and ('^' and)* ;
   and := factor (('&'|'*') factor)* ; factor := '!' factor | atom '''? ;
   atom := ident | '(' or ')' *)
type bexpr =
  | Var of string
  | Not of bexpr
  | And2 of bexpr * bexpr
  | Or2 of bexpr * bexpr
  | Xor2 of bexpr * bexpr

let parse_bexpr text =
  let n = String.length text in
  let pos = ref 0 in
  let fail msg = raise (perr ("function: " ^ msg)) in
  let rec skip () =
    if !pos < n && (text.[!pos] = ' ' || text.[!pos] = '\t') then begin
      incr pos;
      skip ()
    end
  in
  let peek () =
    skip ();
    if !pos < n then Some text.[!pos] else None
  in
  let rec atom () =
    match peek () with
    | Some '(' ->
      incr pos;
      let e = or_ () in
      (match peek () with
      | Some ')' -> incr pos
      | _ -> fail "expected ')'");
      postfix e
    | Some ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_') ->
      let j = ref !pos in
      while
        !j < n
        &&
        match text.[!j] with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
        | _ -> false
      do
        incr j
      done;
      let name = String.sub text !pos (!j - !pos) in
      pos := !j;
      postfix (Var name)
    | _ -> fail "expected operand"
  and postfix e =
    match peek () with
    | Some '\'' ->
      incr pos;
      postfix (Not e)
    | _ -> e
  and factor () =
    match peek () with
    | Some '!' ->
      incr pos;
      Not (factor ())
    | _ -> atom ()
  and and_ () =
    let rec go acc =
      match peek () with
      | Some ('&' | '*') ->
        incr pos;
        go (And2 (acc, factor ()))
      | _ -> acc
    in
    go (factor ())
  and xor_ () =
    let rec go acc =
      match peek () with
      | Some '^' ->
        incr pos;
        go (Xor2 (acc, and_ ()))
      | _ -> acc
    in
    go (and_ ())
  and or_ () =
    let rec go acc =
      match peek () with
      | Some ('|' | '+') ->
        incr pos;
        go (Or2 (acc, xor_ ()))
      | _ -> acc
    in
    go (xor_ ())
  in
  let e = or_ () in
  skip ();
  if !pos <> n then fail "trailing characters";
  e

let rec eval_bexpr env = function
  | Var s -> (
    match List.assoc_opt s env with
    | Some b -> b
    | None -> raise (perr (Printf.sprintf "function: unknown pin %S" s)))
  | Not e -> not (eval_bexpr env e)
  | And2 (a, b) -> eval_bexpr env a && eval_bexpr env b
  | Or2 (a, b) -> eval_bexpr env a || eval_bexpr env b
  | Xor2 (a, b) -> eval_bexpr env a <> eval_bexpr env b

(* Match a function expression over ordered input pins against the
   known cell kinds (identity pin order first, then permutations for
   small arities). *)
let rec permutations = function
  | [] -> [ [] ]
  | l ->
    List.concat_map
      (fun x ->
        List.map (fun p -> x :: p) (permutations (List.filter (( != ) x) l)))
      l

let match_kind ~pins expr =
  let arity = List.length pins in
  let truth order =
    List.init (1 lsl arity) (fun m ->
        let env =
          List.mapi (fun i p -> (p, (m lsr i) land 1 = 1)) order
        in
        eval_bexpr env expr)
  in
  let candidates =
    List.filter (fun k -> Cell_kind.valid_arity k arity) Cell_kind.all
  in
  let orders = if arity <= 4 then permutations pins else [ pins ] in
  let rec try_orders = function
    | [] -> None
    | order :: rest -> (
      let t = truth order in
      let matches k =
        List.init (1 lsl arity) (fun m ->
            Cell_kind.eval k
              (Array.init arity (fun i -> (m lsr i) land 1 = 1)))
        = t
      in
      match List.find_opt matches candidates with
      | Some k -> Some (k, order)
      | None -> try_orders rest)
  in
  try_orders orders

(* ------------------------------------------------------------------ *)
(* Semantic extraction                                                 *)
(* ------------------------------------------------------------------ *)

let attr g name = List.assoc_opt name g.attrs

let fattr g name =
  match attr g name with
  | Some v -> float_of_string_opt (String.trim v)
  | None -> None

let drive_of_name name =
  let n = String.length name in
  let rec digits i = if i < n && text_digit name.[i] then digits (i + 1) else i
  and text_digit c = c >= '0' && c <= '9' in
  ignore digits;
  match String.rindex_opt name '_' with
  | Some i
    when i + 2 <= n - 1
         && (name.[i + 1] = 'X' || name.[i + 1] = 'x')
         && String.for_all text_digit (String.sub name (i + 2) (n - i - 2)) ->
    int_of_string (String.sub name (i + 2) (n - i - 2))
  | _ -> (
    (* also accept ..X2 without underscore rarity: default 1 *)
    match String.rindex_opt name 'X' with
    | Some i
      when i > 0 && i < n - 1
           && String.for_all text_digit (String.sub name (i + 1) (n - i - 1))
      ->
      int_of_string (String.sub name (i + 1) (n - i - 1))
    | _ -> 1)

let comb_cell_of_group g =
  let cell_name = match g.args with a :: _ -> a | [] -> "?" in
  let pins = List.filter (fun s -> s.gname = "pin") g.subs in
  let input_pins =
    List.filter
      (fun p ->
        match attr p "direction" with
        | Some d -> String.trim d = "input"
        | None -> false)
      pins
  in
  let output =
    List.find_opt
      (fun p ->
        match attr p "direction" with
        | Some d -> String.trim d = "output"
        | None -> false)
      pins
  in
  match output with
  | None -> Error (Printf.sprintf "cell %s: no output pin" cell_name)
  | Some out -> (
    match attr out "function" with
    | None -> Error (Printf.sprintf "cell %s: output has no function" cell_name)
    | Some fn_text -> (
      let pin_names =
        List.map (fun p -> match p.args with a :: _ -> a | [] -> "?") input_pins
      in
      match
        (try match_kind ~pins:pin_names (parse_bexpr fn_text)
         with Parse_error e ->
           raise
             (Parse_error { e with Diag.msg = cell_name ^ ": " ^ e.Diag.msg }))
      with
      | None ->
        Error (Printf.sprintf "cell %s: unrecognised function %S" cell_name fn_text)
      | Some (fn, _) ->
        let cap =
          List.fold_left
            (fun acc p ->
              Float.max acc (Option.value ~default:0. (fattr p "capacitance")))
            0. input_pins
        in
        let timing = List.filter (fun s -> s.gname = "timing") out.subs in
        let worst key =
          List.fold_left
            (fun acc t -> Float.max acc (Option.value ~default:0. (fattr t key)))
            0. timing
        in
        Ok
          {
            Liberty.fn;
            drive = drive_of_name cell_name;
            area = Option.value ~default:1. (fattr g "area");
            input_cap = cap;
            intrinsic =
              { Liberty.rise = worst "intrinsic_rise";
                fall = worst "intrinsic_fall" };
            load_slope =
              { Liberty.rise = worst "rise_resistance";
                fall = worst "fall_resistance" };
            pin_derate = Option.value ~default:0. (fattr g "rar_pin_derate");
          }))

let seq_cell_of_group g =
  let d_pin =
    List.find_opt
      (fun p -> p.gname = "pin" && (match p.args with "D" :: _ -> true | _ -> false))
      g.subs
  in
  {
    Liberty.seq_area = Option.value ~default:1. (fattr g "area");
    d_to_q = Option.value ~default:0.04 (fattr g "rar_d_to_q");
    ck_to_q = Option.value ~default:0.056 (fattr g "rar_ck_to_q");
    setup = Option.value ~default:0.03 (fattr g "rar_setup");
    seq_input_cap =
      (match d_pin with
      | Some p -> Option.value ~default:1. (fattr p "capacitance")
      | None -> 1.);
  }

(* Semantic and end-of-file errors carry [line = 0]; [parse_diag]
   attaches the file name. *)
let parse_text text =
  let text = Faults.truncate text in
  match tokenize text with
  | Error _ as e -> e
  | Ok toks -> (
    try
      let lib_group = parse_groups toks in
      let name = match lib_group.args with a :: _ -> a | [] -> "liberty" in
      let wire =
        Option.value ~default:0.1 (fattr lib_group "rar_wire_cap_per_fanout")
      in
      let cells = List.filter (fun g -> g.gname = "cell") lib_group.subs in
      let latch = ref None and flop = ref None in
      let comb = ref [] in
      let warnings = ref 0 in
      List.iter
        (fun g ->
          let is_latch = List.exists (fun s -> s.gname = "latch") g.subs in
          let is_ff = List.exists (fun s -> s.gname = "ff") g.subs in
          if is_latch then latch := Some (seq_cell_of_group g)
          else if is_ff then flop := Some (seq_cell_of_group g)
          else
            match comb_cell_of_group g with
            | Ok c -> comb := c :: !comb
            | Error _ -> incr warnings (* unsupported cell: skip *))
        cells;
      ignore !warnings;
      match !latch with
      | None -> Error (Diag.make "no latch cell in library")
      | Some l ->
        let f =
          match !flop with
          | Some f -> f
          | None ->
            (* derive a flop from the latch at the paper's 43% ratio *)
            { l with Liberty.seq_area = l.Liberty.seq_area /. 0.43;
              d_to_q = 0. }
        in
        if !comb = [] then Error (Diag.make "no combinational cells")
        else
          Ok
            (Liberty.make ~name ~cells:!comb ~latch:l ~flop:f
               ~wire_cap_per_fanout:wire)
    with
    | Parse_error e -> Error e
    | (Stack_overflow | Out_of_memory) as e -> raise e
    | e ->
      (* Mutated input must never escape as an exception. *)
      Error
        (Diag.make
           (Printf.sprintf "unexpected exception %s" (Printexc.to_string e))))

let parse_diag ?file text =
  Result.map_error (fun d -> { d with Diag.file }) (parse_text text)

let parse_file_diag path =
  Result.bind (Diag.read_file path) (parse_diag ~file:path)
