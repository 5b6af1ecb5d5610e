module B = Netlist.Builder

(* Rebuild [net] node by node. [remap] decides, per original node, what
   to create; it returns the new id downstream fanouts should use and
   optionally a (deferred new id, original fanin owner) pair to wire up
   in a second pass. All flows below share this two-pass skeleton. *)

let to_two_phase net =
  let n = Netlist.node_count net in
  let b = B.create ~name:(Netlist.name net) () in
  let repr = Array.make n (-1) in
  (* new id that fanouts of original node v reference *)
  let deferred = ref [] in
  (* (new deferred id, original id whose fanins it takes) *)
  for v = 0 to n - 1 do
    let name = Netlist.node_name net v in
    match Netlist.kind net v with
    | Netlist.Input -> repr.(v) <- B.add_input b name
    | Netlist.Output ->
      let id = B.add_output_deferred b name in
      deferred := (id, v) :: !deferred
    | Netlist.Gate { fn; drive } ->
      let id = B.add_gate_deferred b name ~fn ~drive () in
      repr.(v) <- id;
      deferred := (id, v) :: !deferred
    | Netlist.Seq Netlist.Flop ->
      let m = B.add_seq_deferred b (name ^ "$m") ~role:Netlist.Master in
      let s = B.add_seq b (name ^ "$s") ~role:Netlist.Slave ~fanin:m in
      repr.(v) <- s;
      deferred := (m, v) :: !deferred
    | Netlist.Seq role ->
      let id = B.add_seq_deferred b name ~role in
      repr.(v) <- id;
      deferred := (id, v) :: !deferred
  done;
  List.iter
    (fun (id, v) ->
      let fanins =
        Array.to_list (Array.map (fun u -> repr.(u)) (Netlist.fanins net v))
      in
      B.connect b id ~fanins)
    !deferred;
  B.freeze b

type comb_circuit = {
  comb : Netlist.t;
  source_of : (int * int) array;
  sink_of : (int * int) array;
  gate_of : int array;
}

let extract_comb net =
  let n = Netlist.node_count net in
  (* Resolve the combinational driver seen through slave latches: the
     value feeding downstream logic originates at the slave's
     transitive driver. *)
  let rec driver v =
    match Netlist.kind net v with
    | Netlist.Seq Netlist.Slave -> driver (Netlist.fanins net v).(0)
    | _ -> v
  in
  let b = B.create ~name:(Netlist.name net ^ "$comb") () in
  let repr = Array.make n (-1) in
  let sources = ref [] and sinks = ref [] and gate_pairs = ref [] in
  let deferred = ref [] in
  for v = 0 to n - 1 do
    let name = Netlist.node_name net v in
    match Netlist.kind net v with
    | Netlist.Input ->
      let id = B.add_input b name in
      repr.(v) <- id;
      sources := (id, v) :: !sources
    | Netlist.Seq (Netlist.Master | Netlist.Flop) ->
      (* Q side: a fresh source. D side: a fresh sink, wired in pass 2. *)
      let q = B.add_input b (name ^ "$q") in
      repr.(v) <- q;
      sources := (q, v) :: !sources;
      let d = B.add_output_deferred b (name ^ "$d") in
      sinks := (d, v) :: !sinks;
      deferred := (d, v) :: !deferred
    | Netlist.Seq Netlist.Slave -> () (* bypassed *)
    | Netlist.Gate { fn; drive } ->
      let id = B.add_gate_deferred b name ~fn ~drive () in
      repr.(v) <- id;
      gate_pairs := (id, v) :: !gate_pairs;
      deferred := (id, v) :: !deferred
    | Netlist.Output ->
      let id = B.add_output_deferred b name in
      sinks := (id, v) :: !sinks;
      deferred := (id, v) :: !deferred
  done;
  List.iter
    (fun (id, v) ->
      let fanins =
        Array.to_list
          (Array.map (fun u -> repr.(driver u)) (Netlist.fanins net v))
      in
      B.connect b id ~fanins)
    !deferred;
  let comb = B.freeze b in
  let gate_of = Array.make (Netlist.node_count comb) (-1) in
  List.iter (fun (id, v) -> gate_of.(id) <- v) !gate_pairs;
  {
    comb;
    source_of = Array.of_list (List.rev !sources);
    sink_of = Array.of_list (List.rev !sinks);
    gate_of;
  }

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

  let pp ppf = function
    | Resize { node; drive } -> Format.fprintf ppf "resize %s %d" node drive
    | Rewire { node; pin; driver } ->
      Format.fprintf ppf "rewire %s %d %s" node pin driver
    | Annotate { node; extra } ->
      Format.fprintf ppf "annotate %s %.17g" node extra
    | Set_c c -> Format.fprintf ppf "c %.17g" c

  (* Replace the driver of pin [pin] of node [v] by [b]. Nodes are
     recreated in id order, so ids, names and pin layout are identical
     to [net]'s — downstream index-keyed caches stay valid. *)
  let rewire net v pin b =
    let n = Netlist.node_count net in
    let bld = B.create ~name:(Netlist.name net) () in
    let deferred = ref [] in
    for x = 0 to n - 1 do
      let name = Netlist.node_name net x in
      match Netlist.kind net x with
      | Netlist.Input -> ignore (B.add_input bld name)
      | Netlist.Gate { fn; drive } ->
        ignore (B.add_gate_deferred bld name ~fn ~drive ());
        deferred := x :: !deferred
      | Netlist.Output ->
        ignore (B.add_output_deferred bld name);
        deferred := x :: !deferred
      | Netlist.Seq role ->
        ignore (B.add_seq_deferred bld name ~role);
        deferred := x :: !deferred
    done;
    List.iter
      (fun x ->
        let fi = Array.copy (Netlist.fanins net x) in
        if x = v then fi.(pin) <- b;
        B.connect bld x ~fanins:(Array.to_list fi))
      (List.rev !deferred);
    B.freeze bld

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
      Array.iter (fun u -> if is_gate u then mark dirty u) (Netlist.fanins !net v)
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
            net := rewire !net v pin b
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
          if x < 0. then invalid_arg "Transform.Edit.apply: c must be >= 0";
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

let apply_retiming cc placements =
  let net = cc.comb in
  let n = Netlist.node_count net in
  (* For each (node, pin), the placement index that captures it, if any. *)
  let capture = Hashtbl.create 64 in
  List.iteri
    (fun i p ->
      List.iter
        (fun (v, pin) ->
          let fi = Netlist.fanins net v in
          if pin < 0 || pin >= Array.length fi then
            invalid_arg "Transform.apply_retiming: pin out of range";
          if fi.(pin) <> p.after then
            invalid_arg
              (Printf.sprintf
                 "Transform.apply_retiming: pin %d of %s is not driven by %s"
                 pin (Netlist.node_name net v)
                 (Netlist.node_name net p.after));
          if Hashtbl.mem capture (v, pin) then
            invalid_arg "Transform.apply_retiming: pin latched twice";
          Hashtbl.add capture (v, pin) i)
        p.latched)
    placements;
  let b = B.create ~name:(Netlist.name net ^ "$retimed") () in
  let repr = Array.make n (-1) in
  let deferred = ref [] in
  for v = 0 to n - 1 do
    let name = Netlist.node_name net v in
    match Netlist.kind net v with
    | Netlist.Input -> repr.(v) <- B.add_input b name
    | Netlist.Gate { fn; drive } ->
      let id = B.add_gate_deferred b name ~fn ~drive () in
      repr.(v) <- id;
      deferred := (id, v) :: !deferred
    | Netlist.Output ->
      let id = B.add_output_deferred b name in
      deferred := (id, v) :: !deferred
    | Netlist.Seq _ ->
      invalid_arg "Transform.apply_retiming: expected a combinational circuit"
  done;
  (* One physical slave per placement, created after its driver exists. *)
  let slave_id =
    Array.of_list
      (List.mapi
         (fun i p ->
           let name =
             Printf.sprintf "%s$slv%d" (Netlist.node_name net p.after) i
           in
           B.add_seq_deferred b name ~role:Netlist.Slave)
         placements)
  in
  let placement_after = Array.of_list (List.map (fun p -> p.after) placements) in
  Array.iteri
    (fun i s -> B.connect b s ~fanins:[ repr.(placement_after.(i)) ])
    slave_id;
  List.iter
    (fun (id, v) ->
      let fanins =
        Array.to_list
          (Array.mapi
             (fun pin u ->
               match Hashtbl.find_opt capture (v, pin) with
               | Some i -> slave_id.(i)
               | None -> repr.(u))
             (Netlist.fanins net v))
      in
      B.connect b id ~fanins)
    !deferred;
  B.freeze b
