module B = Netlist.Builder
module Diag = Rar_util.Diag
module Faults = Rar_resilience.Faults

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

let primitive_of = function
  | Cell_kind.And -> Some "and"
  | Cell_kind.Nand -> Some "nand"
  | Cell_kind.Or -> Some "or"
  | Cell_kind.Nor -> Some "nor"
  | Cell_kind.Xor -> Some "xor"
  | Cell_kind.Xnor -> Some "xnor"
  | Cell_kind.Inv -> Some "not"
  | Cell_kind.Buf -> Some "buf"
  | Cell_kind.Aoi21 | Cell_kind.Oai21 | Cell_kind.Mux2 -> None

let seq_keyword = function
  | Netlist.Flop -> "dff"
  | Netlist.Master -> "latch_m"
  | Netlist.Slave -> "latch_s"

(* Verilog identifiers: letters, digits, _, $. Netlist names already
   fit; escape anything else with a leading backslash form. *)
let ident name =
  let ok =
    String.length name > 0
    && (match name.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
    && String.for_all
         (fun c ->
           match c with
           | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '$' -> true
           | _ -> false)
         name
  in
  if ok then name else "\\" ^ name ^ " "

let print net =
  let buf = Buffer.create 4096 in
  let name v = ident (Netlist.node_name net v) in
  let inputs = Netlist.inputs net in
  let outputs = Netlist.outputs net in
  Buffer.add_string buf (Printf.sprintf "// %s\n" (Netlist.name net));
  let ports =
    Array.to_list (Array.map name inputs)
    @ Array.to_list (Array.map name outputs)
  in
  Buffer.add_string buf
    (Printf.sprintf "module %s (%s);\n" (ident (Netlist.name net))
       (String.concat ", " ports));
  Array.iter
    (fun v -> Buffer.add_string buf (Printf.sprintf "  input %s;\n" (name v)))
    inputs;
  Array.iter
    (fun v -> Buffer.add_string buf (Printf.sprintf "  output %s;\n" (name v)))
    outputs;
  for v = 0 to Netlist.node_count net - 1 do
    match Netlist.kind net v with
    | Netlist.Gate _ | Netlist.Seq _ ->
      Buffer.add_string buf (Printf.sprintf "  wire %s;\n" (name v))
    | Netlist.Input | Netlist.Output -> ()
  done;
  for v = 0 to Netlist.node_count net - 1 do
    let args v' = name v' in
    match Netlist.kind net v with
    | Netlist.Input -> ()
    | Netlist.Output ->
      (* an output is just an alias of its driver *)
      Buffer.add_string buf
        (Printf.sprintf "  buf %s_drv (%s, %s);\n"
           (Netlist.node_name net v |> String.map (function
              | ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_') as c -> c
              | _ -> '_'))
           (name v)
           (args (Netlist.fanins net v).(0)))
    | Netlist.Seq role ->
      Buffer.add_string buf
        (Printf.sprintf "  %s %s_i (%s, %s);\n" (seq_keyword role)
           (Netlist.node_name net v |> String.map (function
              | ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_') as c -> c
              | _ -> '_'))
           (name v)
           (args (Netlist.fanins net v).(0)))
    | Netlist.Gate { fn; drive } ->
      let attr = if drive = 1 then "" else Printf.sprintf "(* drive = %d *) " drive in
      let kw =
        match primitive_of fn with Some p -> p | None -> Cell_kind.name fn
      in
      let ins =
        Array.to_list (Array.map args (Netlist.fanins net v))
      in
      Buffer.add_string buf
        (Printf.sprintf "  %s%s %s_i (%s);\n" attr kw
           (Netlist.node_name net v |> String.map (function
              | ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_') as c -> c
              | _ -> '_'))
           (String.concat ", " (name v :: ins)))
  done;
  Buffer.add_string buf "endmodule\n";
  Buffer.contents buf

let write_file path net =
  let oc = open_out path in
  output_string oc (print net);
  close_out oc

(* ------------------------------------------------------------------ *)
(* Reader                                                              *)
(* ------------------------------------------------------------------ *)

type token = Id of string | Sym of char | Attr_drive of int

let tokenize text =
  let toks = ref [] in
  let n = String.length text in
  let line = ref 1 in
  let bol = ref 0 in
  (* beginning-of-line index, for error columns *)
  let error = ref None in
  let i = ref 0 in
  let push t = toks := (t, !line) :: !toks in
  let fail_at pos msg =
    error := Some (Diag.make ~line:!line ~col:(pos - !bol + 1) msg)
  in
  while !i < n && !error = None do
    let c = text.[!i] in
    if c = '\n' then begin
      incr line;
      incr i;
      bol := !i
    end
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '/' && !i + 1 < n && text.[!i + 1] = '/' then begin
      while !i < n && text.[!i] <> '\n' do
        incr i
      done
    end
    else if c = '(' && !i + 1 < n && text.[!i + 1] = '*' then begin
      (* attribute: only (* drive = K *) is recognised *)
      let close =
        let rec find j =
          if j + 1 >= n then None
          else if text.[j] = '*' && text.[j + 1] = ')' then Some j
          else find (j + 1)
        in
        find (!i + 2)
      in
      match close with
      | None -> fail_at !i "unterminated attribute"
      | Some j ->
        let body = String.sub text (!i + 2) (j - !i - 2) in
        let body = String.trim body in
        (match String.index_opt body '=' with
        | Some eq
          when String.trim (String.sub body 0 eq) = "drive" -> (
          let v = String.trim (String.sub body (eq + 1) (String.length body - eq - 1)) in
          match int_of_string_opt v with
          | Some d -> push (Attr_drive d)
          | None -> fail_at !i "bad drive attribute")
        | _ -> fail_at !i "unknown attribute");
        i := j + 2
    end
    else if c = '\\' then begin
      (* escaped identifier: up to whitespace *)
      let j = ref (!i + 1) in
      while !j < n && text.[!j] <> ' ' && text.[!j] <> '\t' && text.[!j] <> '\n' do
        incr j
      done;
      push (Id (String.sub text (!i + 1) (!j - !i - 1)));
      i := !j
    end
    else if
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '$' -> true
      | _ -> false
    then begin
      let j = ref !i in
      while
        !j < n
        &&
        match text.[!j] with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '$' -> true
        | _ -> false
      do
        incr j
      done;
      push (Id (String.sub text !i (!j - !i)));
      i := !j
    end
    else begin
      push (Sym c);
      incr i
    end
  done;
  match !error with
  | Some e -> Error e
  | None -> Ok (List.rev !toks)

let kind_of_keyword = function
  | "and" -> Some (`Gate Cell_kind.And)
  | "nand" -> Some (`Gate Cell_kind.Nand)
  | "or" -> Some (`Gate Cell_kind.Or)
  | "nor" -> Some (`Gate Cell_kind.Nor)
  | "xor" -> Some (`Gate Cell_kind.Xor)
  | "xnor" -> Some (`Gate Cell_kind.Xnor)
  | "not" -> Some (`Gate Cell_kind.Inv)
  | "buf" -> Some (`Gate Cell_kind.Buf)
  | "aoi21" -> Some (`Gate Cell_kind.Aoi21)
  | "oai21" -> Some (`Gate Cell_kind.Oai21)
  | "mux2" -> Some (`Gate Cell_kind.Mux2)
  | "dff" -> Some (`Seq Netlist.Flop)
  | "latch_m" -> Some (`Seq Netlist.Master)
  | "latch_s" -> Some (`Seq Netlist.Slave)
  | _ -> None

(* Builder-phase errors (duplicate/undriven signals, freeze failures)
   carry [line = 0]; [parse_diag] attaches the file name. *)
let parse_text text =
  let text = Faults.truncate text in
  match tokenize text with
  | Error _ as e -> e
  | Ok toks -> (
    let toks = ref toks in
    let line () = match !toks with (_, l) :: _ -> l | [] -> 0 in
    let fail msg = Error (Diag.make ~line:(line ()) msg) in
    try
    let next () =
      match !toks with
      | t :: rest ->
        toks := rest;
        Some (fst t)
      | [] -> None
    in
    let expect_sym c =
      match next () with
      | Some (Sym c') when c' = c -> true
      | _ -> false
    in
    let expect_id () =
      match next () with Some (Id s) -> Some s | _ -> None
    in
    (* grammar: module NAME ( ids ) ; decls* endmodule *)
    match next () with
    | Some (Id "module") -> (
      match expect_id () with
      | None -> fail "expected module name"
      | Some mod_name -> (
        (* skip the port list *)
        if not (expect_sym '(') then fail "expected ("
        else begin
          let rec skip_ports () =
            match next () with
            | Some (Sym ')') -> true
            | Some _ -> skip_ports ()
            | None -> false
          in
          if not (skip_ports () && expect_sym ';') then
            fail "unterminated port list"
          else begin
            (* Single pass collecting declarations and instances; node
               creation is deferred so order doesn't matter. *)
            let inputs = ref [] and outputs = ref [] in
            let instances = ref [] in
            (* (kind, drive, out, ins, lineno) *)
            let err = ref None in
            let pending_drive = ref 1 in
            let rec loop () =
              if !err <> None then ()
              else
                match next () with
                | None -> err := Some "missing endmodule"
                | Some (Id "endmodule") -> ()
                | Some (Id "wire") ->
                  let rec skip () =
                    match next () with
                    | Some (Sym ';') -> ()
                    | Some _ -> skip ()
                    | None -> err := Some "unterminated wire decl"
                  in
                  skip ();
                  loop ()
                | Some (Id (("input" | "output") as dir)) ->
                  let rec names acc =
                    match next () with
                    | Some (Id s) -> names (s :: acc)
                    | Some (Sym ',') -> names acc
                    | Some (Sym ';') -> Some acc
                    | _ -> None
                  in
                  (match names [] with
                  | None -> err := Some "bad port declaration"
                  | Some ns ->
                    if dir = "input" then inputs := !inputs @ List.rev ns
                    else outputs := !outputs @ List.rev ns);
                  loop ()
                | Some (Attr_drive d) ->
                  pending_drive := d;
                  loop ()
                | Some (Id kw) -> (
                  match kind_of_keyword kw with
                  | None -> err := Some (Printf.sprintf "unknown cell %S" kw)
                  | Some kind -> (
                    let drive = !pending_drive in
                    pending_drive := 1;
                    match expect_id () with
                    | None -> err := Some "expected instance name"
                    | Some _inst ->
                      if not (expect_sym '(') then err := Some "expected ("
                      else begin
                        let rec args acc =
                          match next () with
                          | Some (Id s) -> args (s :: acc)
                          | Some (Sym ',') -> args acc
                          | Some (Sym ')') -> Some (List.rev acc)
                          | _ -> None
                        in
                        match args [] with
                        | None -> err := Some "bad connection list"
                        | Some [] -> err := Some "empty connection list"
                        | Some (out :: ins) ->
                          if not (expect_sym ';') then err := Some "expected ;"
                          else begin
                            instances := (kind, drive, out, ins) :: !instances;
                            loop ()
                          end
                      end))
                | Some (Sym _) -> err := Some "unexpected symbol"
            in
            loop ();
            match !err with
            | Some msg -> fail msg
            | None -> (
              (* build the netlist *)
              let b = B.create ~name:mod_name () in
              let ids = Hashtbl.create 64 in
              let errors = ref [] in
              List.iter
                (fun s ->
                  if Hashtbl.mem ids s then
                    errors := Printf.sprintf "duplicate input %S" s :: !errors
                  else Hashtbl.replace ids s (B.add_input b s))
                !inputs;
              (* outputs whose name equals a driven wire are modelled by
                 the buf alias the writer emits; create Output nodes *)
              let out_aliases = Hashtbl.create 16 in
              List.iter
                (fun s -> Hashtbl.replace out_aliases s (B.add_output_deferred b s))
                !outputs;
              let pending = ref [] in
              List.iter
                (fun (kind, drive, out, ins) ->
                  if Hashtbl.mem out_aliases out then begin
                    (* driver of an output port *)
                    match ins with
                    | [ src ] ->
                      pending := (`Out (Hashtbl.find out_aliases out), [ src ]) :: !pending
                    | _ ->
                      errors := "output driver must be a buf alias" :: !errors
                  end
                  else if Hashtbl.mem ids out then
                    errors := Printf.sprintf "signal %S driven twice" out :: !errors
                  else begin
                    let id =
                      match kind with
                      | `Gate fn -> B.add_gate_deferred b out ~fn ~drive ()
                      | `Seq role -> B.add_seq_deferred b out ~role
                    in
                    Hashtbl.replace ids out id;
                    pending := (`Node id, ins) :: !pending
                  end)
                (List.rev !instances);
              List.iter
                (fun (target, ins) ->
                  let resolved =
                    List.map
                      (fun s ->
                        match Hashtbl.find_opt ids s with
                        | Some id -> Ok id
                        | None -> Error (Printf.sprintf "undriven signal %S" s))
                      ins
                  in
                  let rec seq = function
                    | [] -> Ok []
                    | Ok x :: rest -> Result.map (fun l -> x :: l) (seq rest)
                    | Error e :: _ -> Error e
                  in
                  match seq resolved with
                  | Error e -> errors := e :: !errors
                  | Ok fanins -> (
                    match target with
                    | `Node id -> B.connect b id ~fanins
                    | `Out id -> B.connect b id ~fanins))
                (List.rev !pending);
              match !errors with
              | e :: _ -> Error (Diag.make e)
              | [] -> (
                try Ok (B.freeze b) with Failure m -> Error (Diag.make m)))
          end
        end))
    | _ -> fail "expected 'module'"
    with
    | (Stack_overflow | Out_of_memory) as e -> raise e
    | e ->
      (* Mutated input must never escape as an exception. *)
      Error
        (Diag.make
           (Printf.sprintf "Verilog_io.parse: unexpected exception %s"
              (Printexc.to_string e))))

let parse_diag ?file text =
  Result.map_error (fun d -> { d with Diag.file }) (parse_text text)

let parse_file_diag path =
  Result.bind (Diag.read_file path) (parse_diag ~file:path)
