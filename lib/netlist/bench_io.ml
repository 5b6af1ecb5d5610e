module B = Netlist.Builder
module Diag = Rar_util.Diag
module Faults = Rar_resilience.Faults

(* [String.trim]'s blanks (a line holds no '\n'). *)
let is_blank c = c = ' ' || c = '\t' || c = '\r' || c = '\012'

let rec trim_left text lo hi =
  if lo < hi && is_blank text.[lo] then trim_left text (lo + 1) hi else lo

let rec trim_right text lo hi =
  if hi > lo && is_blank text.[hi - 1] then trim_right text lo (hi - 1) else hi

(* 1-based number of the line starting at [ls]. *)
let line_of text ls =
  let n = ref 1 in
  for i = 0 to ls - 1 do
    if text.[i] = '\n' then incr n
  done;
  !n

(* Column of the line's first character that is not a space, tab or
   CR, 1-based; 0 for an all-blank line. *)
let content_col text ls =
  let rec go i =
    if i >= String.length text || text.[i] = '\n' then 0
    else match text.[i] with ' ' | '\t' | '\r' -> go (i + 1) | _ -> i - ls + 1
  in
  go ls

(* Signal name -> node id, keyed by spans of the text: open addressing
   with linear probing over node ids, each id's name kept as a span, so
   a lookup hashes and compares bytes in place and allocates nothing.
   Sized once from the line count: a line defines at most one name,
   and a name's node id is below its line number. *)
module Names = struct
  type t = {
    text : string;
    slot : int array; (* node id per slot, -1 when empty *)
    pos : int array; (* name span of each node id *)
    len : int array;
    mask : int;
  }

  let create text ~lines =
    let cap = ref 16 in
    while !cap < 2 * lines do
      cap := 2 * !cap
    done;
    { text; slot = Array.make !cap (-1); pos = Array.make lines 0;
      len = Array.make lines 0; mask = !cap - 1 }

  let hash s p l =
    let h = ref 0 in
    for k = p to p + l - 1 do
      h := (!h * 31) + Char.code s.[k]
    done;
    (* Names like "g12_345" differ in their last bytes, so the
       polynomial differs in its low bits; multiply and fold the high
       half down so neighbours do not fill one probe run. *)
    let h = !h * 0x2545F4914F6CDD1D in
    h lxor (h lsr 32)

  let rec same text q s p l k =
    k = l || (text.[q + k] = s.[p + k] && same text q s p l (k + 1))

  (* The slot holding the key [s.[p .. p+l-1]], or the empty slot it
     would take. *)
  let rec probe t s p l i =
    let id = t.slot.(i) in
    if id < 0 || (t.len.(id) = l && same t.text t.pos.(id) s p l 0) then i
    else probe t s p l ((i + 1) land t.mask)

  (* The node id named [s.[p .. p+l-1]], or -1. *)
  let find t s p l = t.slot.(probe t s p l (hash s p l land t.mask))

  (* Name node [id] by the text span [p, p+l); false when the name is
     taken. *)
  let add t p l id =
    let i = probe t t.text p l (hash t.text p l land t.mask) in
    t.slot.(i) < 0
    && begin
      t.slot.(i) <- id;
      t.pos.(id) <- p;
      t.len.(id) <- l;
      true
    end
end

let undefined text p l =
  Printf.sprintf "undefined signal %S" (String.sub text p l)

(* The ')' closing the '(' at [op] within [op, hi), or -1 when the
   parentheses after [op] do not balance; a name may hold balanced
   ones. *)
let closing text op hi =
  let rec go i depth =
    if i >= hi then -1
    else
      match text.[i] with
      | '(' -> go (i + 1) (depth + 1)
      | ')' -> if depth = 1 then i else go (i + 1) (depth - 1)
      | _ -> go (i + 1) depth
  in
  go op 0

(* One pass over the text by byte offsets. Nodes are created in line
   order (inputs, gates and latches as they come, then one output per
   OUTPUT line), exactly the ids the netlist keeps; only the names it
   keeps are allocated. Gate and latch fanins may name signals defined
   later, so their argument spans are resolved after the pass.

   Of several errors the last one recorded wins, in the order the
   checks run: line errors in line order, then wiring (undefined
   fanins) in reverse line order, then undefined OUTPUTs (line 0).
   So an undefined OUTPUT beats a wiring error, which beats a line
   error; the freeze runs only on a clean text, and its failures
   carry [line = 0]; [parse_diag] attaches the file name. *)
let parse_text text =
  let text = Faults.truncate text in
  let len = String.length text in
  (* Every table below is sized here: a line defines at most one node
     or lists one OUTPUT, and the argument lists hold at most one
     argument per line plus one per comma. *)
  let lines = ref 1 and commas = ref 0 in
  for i = 0 to len - 1 do
    match text.[i] with '\n' -> incr lines | ',' -> incr commas | _ -> ()
  done;
  let lines = !lines in
  let names = Names.create text ~lines in
  let b = B.create ~name:"bench" () in
  (* Deferred nodes in line order: id, line start, and their argument
     spans [p_arg.(k), p_arg.(k+1)) in [arg_pos]/[arg_len]. *)
  let p_id = Array.make lines 0 and p_start = Array.make lines 0 in
  let p_arg = Array.make (lines + 1) 0 in
  let arg_pos = Array.make (lines + !commas) 0 in
  let arg_len = Array.make (lines + !commas) 0 in
  let n_pending = ref 0 and n_args = ref 0 in
  (* OUTPUT spans, last first, and the names they list. *)
  let outputs = ref [] and n_outputs = ref 0 in
  let listed = Names.create text ~lines in
  let line_err = ref None in
  let fail lineno start msg =
    line_err := Some (Diag.make ~line:lineno ~col:(content_col text start) msg)
  in
  let ls = ref 0 and lineno = ref 0 in
  while !ls <= len do
    incr lineno;
    let start = !ls in
    (* End of the line, its first '=' and its first '(' (overall and
       after that '='). *)
    let le = ref start and eq = ref (-1) and lp = ref (-1) in
    let lp_eq = ref (-1) in
    while !le < len && text.[!le] <> '\n' do
      (match text.[!le] with
      | '=' -> if !eq < 0 then eq := !le
      | '(' ->
        if !lp < 0 then lp := !le;
        if !eq >= 0 && !lp_eq < 0 then lp_eq := !le
      | _ -> ());
      incr le
    done;
    ls := !le + 1;
    let line = !lineno in
    let a = trim_left text start !le in
    (* The argument list runs from a directive's first '(', or an
       assignment's first '(' after its '=', to the matching ')'; only
       blanks or a '#' comment may follow. *)
    let rp =
      let op = if !eq < 0 then !lp else !lp_eq in
      if op < 0 then -1 else closing text op !le
    in
    let after = if rp < 0 then !le else trim_left text (rp + 1) !le in
    if a = !le || text.[a] = '#' then ()
    else if after < !le && text.[after] <> '#' then
      line_err :=
        Some
          (Diag.make ~line ~col:(after - start + 1)
             (Printf.sprintf "unexpected %S after the argument list"
                (String.sub text after (trim_right text after !le - after))))
    else if !eq < 0 then begin
      (* KW(arg): a directive *)
      if rp >= 0 then begin
        let kw_end = trim_right text a !lp in
        let arg = trim_left text (!lp + 1) rp in
        let arg_end = trim_right text arg rp in
        if Cell_kind.sub_is text a (kw_end - a) "input" then begin
          let id = B.node_count b in
          if Names.add names arg (arg_end - arg) id then
            ignore (B.add_input b (String.sub text arg (arg_end - arg)))
          else
            fail line start
              (Printf.sprintf "signal %S defined twice"
                 (String.sub text arg (arg_end - arg)))
        end
        else if Cell_kind.sub_is text a (kw_end - a) "output" then begin
          if Names.add listed arg (arg_end - arg) !n_outputs then begin
            outputs := (arg, arg_end - arg) :: !outputs;
            incr n_outputs
          end
          else
            fail line start
              (Printf.sprintf "OUTPUT %S listed twice"
                 (String.sub text arg (arg_end - arg)))
        end
        else
          fail line start
            (Printf.sprintf "unknown directive %S" (String.sub text a (kw_end - a)))
      end
      else fail line start "expected INPUT(..), OUTPUT(..) or an assignment"
    end
    else if rp >= 0 then begin
      (* LHS = OP(args): a gate or latch *)
      let lhs_end = trim_right text a !eq in
      let op = trim_left text (!eq + 1) !lp_eq in
      let op_len = trim_right text op !lp_eq - op in
      let role =
        if Cell_kind.sub_is text op op_len "dff" then Some Netlist.Flop
        else if Cell_kind.sub_is text op op_len "mlatch" then Some Netlist.Master
        else if Cell_kind.sub_is text op op_len "slatch" then Some Netlist.Slave
        else None
      in
      let fn = Cell_kind.of_sub text op op_len in
      if Option.is_none role && Option.is_none fn then
        fail line start
          (Printf.sprintf "unknown operator %S" (String.sub text op op_len))
      else
        let id = B.node_count b in
        if not (Names.add names a (lhs_end - a) id) then
          fail line start
            (Printf.sprintf "signal %S defined twice"
               (String.sub text a (lhs_end - a)))
        else begin
          let name = String.sub text a (lhs_end - a) in
          ignore
            (match role with
            | Some role -> B.add_seq_deferred b name ~role
            | None -> B.add_gate_deferred b name ~fn:(Option.get fn) ());
          p_id.(!n_pending) <- id;
          p_start.(!n_pending) <- start;
          p_arg.(!n_pending) <- !n_args;
          incr n_pending;
          (* Comma-separated, each trimmed; a blank list is empty. *)
          let lo = !lp_eq + 1 and hi = rp in
          if trim_left text lo hi < hi then begin
            let piece = ref lo in
            for i = lo to hi do
              if i = hi || text.[i] = ',' then begin
                let p = trim_left text !piece i in
                arg_pos.(!n_args) <- p;
                arg_len.(!n_args) <- trim_right text p i - p;
                incr n_args;
                piece := i + 1
              end
            done
          end
        end
    end
    else fail line start "right-hand side must be OP(args)"
  done;
  (* Wiring: the first pending line with an undefined fanin is the
     wiring error recorded last. *)
  p_arg.(!n_pending) <- !n_args;
  let wire_err = ref None and k = ref 0 in
  while Option.is_none !wire_err && !k < !n_pending do
    let a0 = p_arg.(!k) and a1 = p_arg.(!k + 1) in
    let fanins = Array.make (a1 - a0) 0 in
    (* Backwards, so the first undefined argument is the one kept. *)
    for i = a1 - 1 downto a0 do
      let id = Names.find names text arg_pos.(i) arg_len.(i) in
      if id < 0 then
        wire_err :=
          Some
            (Diag.make ~line:(line_of text p_start.(!k))
               ~col:(content_col text p_start.(!k))
               (undefined text arg_pos.(i) arg_len.(i)))
      else fanins.(i - a0) <- id
    done;
    if Option.is_none !wire_err then B.connect b p_id.(!k) ~fanins;
    incr k
  done;
  (* OUTPUT(x) names a signal; a sink node "x$po" reads it. *)
  let out_err = ref None in
  List.iter
    (fun (p, l) ->
      let id = Names.find names text p l in
      if id < 0 then out_err := Some (Diag.make (undefined text p l))
      else begin
        let po = String.sub text p l ^ "$po" in
        let po =
          if Names.find names po 0 (String.length po) >= 0 then po ^ "2" else po
        in
        ignore (B.add_output b po ~fanin:id)
      end)
    (List.rev !outputs);
  match (!out_err, !wire_err, !line_err) with
  | Some d, _, _ | None, Some d, _ | None, None, Some d -> Error d
  | None, None, None -> (
    try Ok (B.freeze b) with Failure msg -> Error (Diag.make msg))

let parse_diag ?file text =
  Rar_obs.Trace.span "bench_io/parse" @@ fun () ->
  match parse_text text with
  | result -> Result.map_error (fun d -> { d with Diag.file }) result
  | exception ((Stack_overflow | Out_of_memory) as e) -> raise e
  | exception e ->
    (* Mutated input must never escape as an exception; anything the
       builder throws on malformed structure becomes a diagnostic. *)
    Error
      (Diag.make ?file
         (Printf.sprintf "Bench_io.parse: unexpected exception %s"
            (Printexc.to_string e)))

let parse_file_diag path =
  Result.bind (Diag.read_file path) (parse_diag ~file:path)

let op_name fn = String.uppercase_ascii (Cell_kind.name fn)

let print net =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "# %s\n" (Netlist.name net));
  Array.iter
    (fun v ->
      Buffer.add_string buf
        (Printf.sprintf "INPUT(%s)\n" (Netlist.node_name net v)))
    (Netlist.inputs net);
  Array.iter
    (fun v ->
      let driver = (Netlist.fanins net v).(0) in
      Buffer.add_string buf
        (Printf.sprintf "OUTPUT(%s)\n" (Netlist.node_name net driver)))
    (Netlist.outputs net);
  let args v =
    String.concat ", "
      (Array.to_list
         (Array.map (fun u -> Netlist.node_name net u) (Netlist.fanins net v)))
  in
  for v = 0 to Netlist.node_count net - 1 do
    match Netlist.kind net v with
    | Netlist.Input | Netlist.Output -> ()
    | Netlist.Gate { fn; _ } ->
      Buffer.add_string buf
        (Printf.sprintf "%s = %s(%s)\n" (Netlist.node_name net v) (op_name fn)
           (args v))
    | Netlist.Seq role ->
      let op =
        match role with
        | Netlist.Flop -> "DFF"
        | Netlist.Master -> "MLATCH"
        | Netlist.Slave -> "SLATCH"
      in
      Buffer.add_string buf
        (Printf.sprintf "%s = %s(%s)\n" (Netlist.node_name net v) op (args v))
  done;
  Buffer.contents buf

let write_file path net =
  let oc = open_out path in
  output_string oc (print net);
  close_out oc
