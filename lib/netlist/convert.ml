module B = Netlist.Builder

type phases = Two | Three

let to_int = function Two -> 2 | Three -> 3

let phases_of_int = function
  | 2 -> Ok Two
  | 3 -> Ok Three
  | n -> Error (Printf.sprintf "Convert: unsupported phase count %d (use 2 or 3)" n)

type stats = {
  flops : int;
  masters : int;
  slaves : int;
  gates : int;
  scheme : phases;
}

let pp_stats ppf s =
  Format.fprintf ppf
    "%d flops -> %d masters + %d slaves (%d-phase), %d gates untouched"
    s.flops s.masters s.slaves (to_int s.scheme) s.gates

(* Deterministic decomposition: nodes are visited in input id order and
   recreated with the same names (latches suffixed $m/$s/$t), so output
   ids, names and pin positions are a pure function of the input
   netlist — independent of job count, environment or hash order. The
   combinational structure is untouched: every gate keeps its fn,
   drive, name and pin order, so the result freezes into the usual
   compact CSR view and [Transform.extract_comb]/[Stage.make] accept it
   unmodified. *)
let split phases net =
  let b = B.create ~name:(Netlist.name net) () in
  let repr = Array.make (Netlist.node_count net) (-1) in
  let wire = ref [] in
  for v = 0 to Netlist.node_count net - 1 do
    match Netlist.kind net v with
    | Netlist.Seq Netlist.Flop ->
      (* Master on phase 1 (transparent low, error-detecting site),
         then the slave chain the original fanouts read through: one
         phase-2 latch, plus a phase-3 latch under the three-phase
         scheme. Only the master's D pin is wired in pass 2 — it takes
         the flop's original fanin. *)
      let name = Netlist.node_name net v in
      let m = B.add_seq_deferred b (name ^ "$m") ~role:Netlist.Master in
      let s = B.add_seq b (name ^ "$s") ~role:Netlist.Slave ~fanin:m in
      repr.(v) <-
        (match phases with
        | Two -> s
        | Three -> B.add_seq b (name ^ "$t") ~role:Netlist.Slave ~fanin:s);
      wire := (m, v) :: !wire
    | Netlist.Input | Netlist.Output | Netlist.Gate _ | Netlist.Seq _ ->
      let id = B.copy b net v in
      repr.(v) <- id;
      wire := (id, v) :: !wire
  done;
  List.iter
    (fun (id, v) ->
      B.connect b id
        ~fanins:
          (Array.to_list (Array.map (Array.get repr) (Netlist.fanins net v))))
    !wire;
  B.freeze b

let run ?(phases = Two) net =
  let already =
    Array.exists
      (fun v -> Netlist.kind net v <> Netlist.Seq Netlist.Flop)
      (Netlist.seqs net)
  in
  if already then
    Error
      (Printf.sprintf
         "Convert.run: %S already contains master/slave latches; expected an \
          edge-triggered (DFF) design"
         (Netlist.name net))
  else
    match split phases net with
    | exception Failure msg -> Error ("Convert.run: " ^ msg)
    | out ->
      let flops = Array.length (Netlist.seqs net) in
      let slaves_per_flop = match phases with Two -> 1 | Three -> 2 in
      Ok
        ( out,
          {
            flops;
            masters = flops;
            slaves = slaves_per_flop * flops;
            gates = Array.length (Netlist.gates net);
            scheme = phases;
          } )
