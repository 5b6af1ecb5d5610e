module Netlist = Rar_netlist.Netlist
module Cell_kind = Rar_netlist.Cell_kind
module Transform = Rar_netlist.Transform
module Liberty = Rar_liberty.Liberty
module Sta = Rar_sta.Sta
module Heap = Rar_util.Heap
module B = Netlist.Builder

type stats = {
  bufs_removed : int;
  inv_pairs_removed : int;
  gates_decomposed : int;
  gates_added : int;
}

let decomposable = function
  | Cell_kind.And | Cell_kind.Or | Cell_kind.Nand | Cell_kind.Nor
  | Cell_kind.Xor | Cell_kind.Xnor ->
    true
  | Cell_kind.Buf | Cell_kind.Inv | Cell_kind.Aoi21 | Cell_kind.Oai21
  | Cell_kind.Mux2 ->
    false

(* Non-inverting kind used for the internal tree nodes. *)
let internal_kind = function
  | Cell_kind.And | Cell_kind.Nand -> Cell_kind.And
  | Cell_kind.Or | Cell_kind.Nor -> Cell_kind.Or
  | Cell_kind.Xor | Cell_kind.Xnor -> Cell_kind.Xor
  | k -> k

(* Arrival time of every original node, for the Huffman ordering. *)
let arrivals ~lib net =
  let { Transform.comb; orig } = Transform.extract_comb net in
  let sta = Sta.analyse lib Sta.Path_based comb in
  let arr = Array.make (Netlist.node_count net) 0. in
  Array.iteri
    (fun comb_id v ->
      if Netlist.is_comb comb comb_id then arr.(v) <- Sta.df sta comb_id)
    orig;
  arr

(* Decomposed gates become trees of two-input gates. *)
let max_arity = 2

let optimize ~lib net =
  let n = Netlist.node_count net in
  let arr = arrivals ~lib net in
  (* Substitution through bufs and double inverters. *)
  let bufs_removed = ref 0 and inv_pairs_removed = ref 0 in
  let subst = Array.make n (-1) in
  let rec resolve v =
    if subst.(v) >= 0 then subst.(v)
    else begin
      let r =
        match Netlist.kind net v with
        | Netlist.Gate { fn = Cell_kind.Buf; _ } ->
          incr bufs_removed;
          resolve (Netlist.fanins net v).(0)
        | Netlist.Gate { fn = Cell_kind.Inv; _ } -> (
          let u = (Netlist.fanins net v).(0) in
          match Netlist.kind net u with
          | Netlist.Gate { fn = Cell_kind.Inv; _ } ->
            incr inv_pairs_removed;
            resolve (Netlist.fanins net u).(0)
          | _ -> v)
        | _ -> v
      in
      subst.(v) <- r;
      r
    end
  in
  for v = 0 to n - 1 do
    ignore (resolve v)
  done;
  (* Liveness: walk back from outputs and sequential elements through
     the substituted fanin relation. *)
  let live = Array.make n false in
  let rec mark v =
    let v = resolve v in
    if not live.(v) then begin
      live.(v) <- true;
      Array.iter mark (Netlist.fanins net v)
    end
  in
  Array.iter
    (fun v ->
      live.(v) <- true;
      Array.iter mark (Netlist.fanins net v))
    (Netlist.outputs net);
  Array.iter
    (fun v ->
      live.(v) <- true;
      Array.iter mark (Netlist.fanins net v))
    (Netlist.seqs net);
  Array.iter (fun v -> live.(v) <- true) (Netlist.inputs net);
  (* Rebuild. *)
  let b = B.create ~name:(Netlist.name net) () in
  let fresh = Array.make n (-1) in
  let deferred = ref [] in
  let gates_decomposed = ref 0 and gates_added = ref 0 in
  for v = 0 to n - 1 do
    if live.(v) && resolve v = v then begin
      let id = B.copy b net v in
      fresh.(v) <- id;
      deferred := (id, v) :: !deferred
    end
  done;
  (* Wire pass: wide live gates get Huffman trees; everything else maps
     its fanins through the substitution. *)
  List.iter
    (fun (id, v) ->
      let fanins = Array.map resolve (Netlist.fanins net v) in
      match Netlist.kind net v with
      | Netlist.Gate { fn; drive }
        when decomposable fn && Array.length fanins > max_arity ->
        incr gates_decomposed;
        (* Huffman: repeatedly merge the [max_arity] earliest subtrees
           into an internal non-inverting gate; the last merge keeps
           the original (possibly inverting) kind at node [id]. *)
        let heap = Heap.create () in
        Array.iter (fun u -> Heap.add heap arr.(u) (fresh.(u))) fanins;
        let merge_delay = 0.03 in
        let counter = ref 0 in
        let rec reduce () =
          if Heap.length heap > max_arity then begin
            let picked = ref [] and worst = ref 0. in
            for _ = 1 to max_arity do
              match Heap.pop_min heap with
              | Some (t, node) ->
                worst := Float.max !worst t;
                picked := node :: !picked
              | None -> ()
            done;
            incr counter;
            incr gates_added;
            let g =
              B.add_gate b
                (Printf.sprintf "%s$t%d" (Netlist.node_name net v) !counter)
                ~fn:(internal_kind fn) ~drive
                ~fanins:(List.rev !picked) ()
            in
            Heap.add heap (!worst +. merge_delay) g;
            reduce ()
          end
        in
        reduce ();
        let rest = ref [] in
        let rec drain () =
          match Heap.pop_min heap with
          | Some (_, node) ->
            rest := node :: !rest;
            drain ()
          | None -> ()
        in
        drain ();
        B.connect b id ~fanins:(List.rev !rest)
      | Netlist.Gate _ | Netlist.Input | Netlist.Output | Netlist.Seq _ ->
        B.connect b id
          ~fanins:(Array.to_list (Array.map (fun u -> fresh.(u)) fanins)))
    !deferred;
  ( B.freeze b,
    {
      bufs_removed = !bufs_removed;
      inv_pairs_removed = !inv_pairs_removed;
      gates_decomposed = !gates_decomposed;
      gates_added = !gates_added;
    } )
