module B = Netlist.Builder
module C = Netlist.Compact
module Vec = Rar_util.Vec

type comb_circuit = { comb : Netlist.t; orig : int array }

let extract_comb net =
  let c = Netlist.compact net in
  let head = c.C.fanin_head and fin = c.C.fanin in
  (* Resolve the combinational driver seen through slave latches: the
     value feeding downstream logic originates at the slave's
     transitive driver. *)
  let rec driver v =
    match Netlist.kind net v with
    | Netlist.Seq Netlist.Slave -> driver fin.(head.(v))
    | _ -> v
  in
  let n = Netlist.node_count net in
  let b = B.create ~name:(Netlist.name net ^ "$comb") () in
  (* [repr.(v)]: the node reading [v]'s output; [wire.(v)]: the node
     taking [v]'s fanins (a latch's D-side sink), -1 for a bypassed
     slave. *)
  let repr = Array.make n (-1) and wire = Array.make n (-1) in
  (* [orig] holds the original node of each new id, in id order. *)
  let orig = Vec.create () in
  let add v id =
    Vec.add_last orig v;
    id
  in
  for v = 0 to n - 1 do
    match Netlist.kind net v with
    | Netlist.Seq Netlist.Slave -> () (* bypassed *)
    | Netlist.Seq (Netlist.Master | Netlist.Flop) ->
      (* Q side: a fresh source. D side: a fresh sink, wired in pass 2. *)
      let name = Netlist.node_name net v in
      repr.(v) <- add v (B.add_input b (name ^ "$q"));
      wire.(v) <- add v (B.add_output_deferred b (name ^ "$d"))
    | Netlist.Input | Netlist.Gate _ | Netlist.Output ->
      let id = add v (B.copy b net v) in
      repr.(v) <- id;
      wire.(v) <- id
  done;
  for v = 0 to n - 1 do
    if wire.(v) >= 0 then begin
      let lo = head.(v) in
      let fanins = Array.make (head.(v + 1) - lo) 0 in
      for i = 0 to Array.length fanins - 1 do
        fanins.(i) <- repr.(driver fin.(lo + i))
      done;
      B.connect b wire.(v) ~fanins
    end
  done;
  { comb = B.freeze b; orig = Vec.to_array orig }

module Edit = struct
  type t =
    | Resize of { node : string; drive : int }
    | Rewire of { node : string; pin : int; driver : string }
    | Annotate of { node : string; extra : float }
    | Set_c of float

  type applied = {
    net : Netlist.t;
    annot : float array;
    c : float option;
    dirty_arcs : int list;
    seeds : int list;
  }

  let apply ?annot net edits =
    let n = Netlist.node_count net in
    let annot =
      match annot with
      | Some a ->
        if Array.length a <> n then
          invalid_arg "Transform.Edit.apply: annot length mismatch";
        Array.copy a
      | None -> Array.make n 0.
    in
    let net = ref net in
    let c = ref None in
    let dirty = Hashtbl.create 16 and seeds = Hashtbl.create 16 in
    let is_gate v =
      match Netlist.kind !net v with Netlist.Gate _ -> true | _ -> false
    in
    let mark tbl v = Hashtbl.replace tbl v () in
    let find what name =
      match Netlist.find !net name with
      | Some v -> v
      | None ->
        invalid_arg
          (Printf.sprintf "Transform.Edit.apply: unknown %s %S" what name)
    in
    let mark_load_dirty v =
      (* [v]'s input capacitance feeds its drivers' loads, so their
         timing arcs change along with [v]'s own. *)
      mark dirty v;
      let c = Netlist.compact !net in
      for p = C.fanin_lo c v to C.fanin_hi c v - 1 do
        let u = C.fanin c p in
        if is_gate u then mark dirty u
      done
    in
    List.iter
      (fun e ->
        match e with
        | Resize { node; drive } ->
          let v = find "gate" node in
          (match Netlist.kind !net v with
          | Netlist.Gate { drive = d0; _ } ->
            if drive < 1 then
              invalid_arg "Transform.Edit.apply: drive must be >= 1";
            if d0 <> drive then begin
              mark_load_dirty v;
              net := Netlist.with_drive !net v drive
            end
          | _ ->
            invalid_arg
              (Printf.sprintf "Transform.Edit.apply: %S is not a gate" node))
        | Rewire { node; pin; driver } ->
          let v = find "node" node and b = find "driver" driver in
          (match Netlist.kind !net v with
          | Netlist.Gate _ | Netlist.Output -> ()
          | _ ->
            invalid_arg
              (Printf.sprintf
                 "Transform.Edit.apply: %S is not a gate or output" node));
          let fi = Netlist.fanins !net v in
          if pin < 0 || pin >= Array.length fi then
            invalid_arg
              (Printf.sprintf "Transform.Edit.apply: pin %d of %S out of range"
                 pin node);
          if fi.(pin) <> b then begin
            (match Netlist.kind !net b with
            | Netlist.Output ->
              invalid_arg
                (Printf.sprintf
                   "Transform.Edit.apply: output %S cannot drive" driver)
            | _ -> ());
            if (Netlist.fanout_cone !net v).(b) then
              invalid_arg
                (Printf.sprintf
                   "Transform.Edit.apply: rewiring pin %d of %S to %S creates \
                    a combinational cycle"
                   pin node driver);
            let old = fi.(pin) in
            (* Fanout counts of both drivers change, hence their loads. *)
            if is_gate old then mark dirty old;
            if is_gate b then mark dirty b;
            mark seeds v;
            fi.(pin) <- b;
            net := Netlist.with_fanins !net [ (v, fi) ]
          end
        | Annotate { node; extra } ->
          let v = find "gate" node in
          if not (is_gate v) then
            invalid_arg
              (Printf.sprintf "Transform.Edit.apply: %S is not a gate" node);
          if extra <> 0. then begin
            if annot.(v) +. extra < 0. then
              invalid_arg
                (Printf.sprintf
                   "Transform.Edit.apply: cumulative annotation on %S is \
                    negative"
                   node);
            annot.(v) <- annot.(v) +. extra;
            mark dirty v
          end
        | Set_c x ->
          if not (Float.is_finite x && x >= 0.) then
            invalid_arg "Transform.Edit.apply: c must be finite and >= 0";
          c := Some x)
      edits;
    let sorted tbl =
      List.sort compare (Hashtbl.fold (fun v () acc -> v :: acc) tbl [])
    in
    { net = !net; annot; c = !c; dirty_arcs = sorted dirty; seeds = sorted seeds }

  let parse_error lineno msg =
    Error (Printf.sprintf "edit script line %d: %s" lineno msg)

  let parse_script text =
    let lines = String.split_on_char '\n' text in
    let batches = ref [] and current = ref [] in
    let commit () =
      if !current <> [] then begin
        batches := List.rev !current :: !batches;
        current := []
      end
    in
    let rec go lineno = function
      | [] ->
        commit ();
        Ok (List.rev !batches)
      | line :: rest -> (
        let line =
          match String.index_opt line '#' with
          | Some i -> String.sub line 0 i
          | None -> line
        in
        let toks =
          String.split_on_char ' ' line
          |> List.concat_map (String.split_on_char '\t')
          |> List.filter (fun s -> s <> "" && s <> "\r")
        in
        let int_of what s =
          match int_of_string_opt s with
          | Some i -> Ok i
          | None -> parse_error lineno (Printf.sprintf "bad %s %S" what s)
        in
        let float_of what s =
          match float_of_string_opt s with
          | Some f -> Ok f
          | None -> parse_error lineno (Printf.sprintf "bad %s %S" what s)
        in
        let push e =
          current := e :: !current;
          go (lineno + 1) rest
        in
        match toks with
        | [] -> go (lineno + 1) rest
        | [ "commit" ] ->
          commit ();
          go (lineno + 1) rest
        | [ "resize"; node; d ] -> (
          match int_of "drive" d with
          | Ok drive -> push (Resize { node; drive })
          | Error _ as e -> e)
        | [ "rewire"; node; pin; driver ] -> (
          match int_of "pin" pin with
          | Ok pin -> push (Rewire { node; pin; driver })
          | Error _ as e -> e)
        | [ "annotate"; node; x ] -> (
          match float_of "delay" x with
          | Ok extra -> push (Annotate { node; extra })
          | Error _ as e -> e)
        | [ "c"; x ] -> (
          match float_of "c value" x with
          | Ok v -> push (Set_c v)
          | Error _ as e -> e)
        | tok :: _ -> parse_error lineno (Printf.sprintf "unknown edit %S" tok))
    in
    go 1 lines
end

type placement = { after : int; latched : (int * int) list }

(* Fanouts ascending, the pins of one fanout in descending pin order:
   the order every placement has been listed in. A fanout row repeats
   a fanout once per pin, adjacently ({!Netlist.Compact.fanout}), so
   walking it right to left and prepending builds that order
   directly. *)
let slave_after net u ~keep =
  let c = Netlist.compact net in
  let fo_head = c.C.fanout_head and fo = c.C.fanout in
  let head = c.C.fanin_head and fin = c.C.fanin in
  let latched = ref [] in
  for i = fo_head.(u + 1) - 1 downto fo_head.(u) do
    let v = fo.(i) in
    if (i = fo_head.(u) || fo.(i - 1) <> v) && keep v then
      for p = head.(v) to head.(v + 1) - 1 do
        if fin.(p) = u then latched := (v, p - head.(v)) :: !latched
      done
  done;
  if !latched = [] then None else Some { after = u; latched = !latched }

let initial_placements net =
  Array.fold_right
    (fun src acc ->
      match slave_after net src ~keep:(fun _ -> true) with
      | Some p -> p :: acc
      | None -> acc)
    (Netlist.inputs net) []

(* Plain recursion over each placement's pins, so the index array is
   all a call allocates besides two closures. *)
let pin_index net placements =
  let c = Netlist.compact net in
  let head = c.C.fanin_head and fin = c.C.fanin in
  let index = Array.make (Int.max 1 head.(c.C.n)) (-1) in
  let rec pins i after = function
    | [] -> ()
    | (v, pin) :: rest ->
      if pin < 0 || pin >= head.(v + 1) - head.(v) then
        invalid_arg "Transform.pin_index: pin out of range";
      let at = head.(v) + pin in
      if fin.(at) <> after then
        invalid_arg
          (Printf.sprintf
             "Transform.pin_index: pin %d of %s is not driven by %s"
             pin (Netlist.node_name net v)
             (Netlist.node_name net after));
      if index.(at) >= 0 then
        invalid_arg "Transform.pin_index: pin latched twice";
      index.(at) <- i;
      pins i after rest
  in
  List.iteri (fun i p -> pins i p.after p.latched) placements;
  index

let apply_retiming cc placements =
  let net = cc.comb in
  let n = Netlist.node_count net in
  let c = Netlist.compact net in
  let head = c.C.fanin_head and fin = c.C.fanin in
  let capture = pin_index net placements in
  (* Every comb node is copied first, so it keeps its id; the slaves,
     one per placement, come after them. *)
  let b = B.create ~name:(Netlist.name net ^ "$retimed") () in
  for v = 0 to n - 1 do
    if Netlist.is_seq net v then
      invalid_arg "Transform.apply_retiming: expected a combinational circuit";
    ignore (B.copy b net v)
  done;
  let slave =
    Array.of_list
      (List.mapi
         (fun i p ->
           let name =
             Printf.sprintf "%s$slv%d" (Netlist.node_name net p.after) i
           in
           B.add_seq b name ~role:Netlist.Slave ~fanin:p.after)
         placements)
  in
  (* Each row is the node's CSR row with every latched pin read
     through its slave. *)
  for v = 0 to n - 1 do
    let lo = head.(v) in
    let fanins =
      Array.init (head.(v + 1) - lo) (fun pin ->
          let i = capture.(lo + pin) in
          if i >= 0 then slave.(i) else fin.(lo + pin))
    in
    B.connect b v ~fanins
  done;
  B.freeze b
