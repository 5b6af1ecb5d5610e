module Netlist = Rar_netlist.Netlist
module Cell_kind = Rar_netlist.Cell_kind
module Rng = Rar_util.Rng
module B = Netlist.Builder

let word = 32
let n_regs = 32

type ctx = { b : B.t; mutable n : int; rng : Rng.t }

let fresh ctx prefix =
  ctx.n <- ctx.n + 1;
  Printf.sprintf "%s_%d" prefix ctx.n

let gate ctx prefix fn fanins =
  B.add_gate ctx.b (fresh ctx prefix) ~fn ~fanins ()

let inv ctx a = gate ctx "inv" Cell_kind.Inv [| a |]
let and2 ctx a b = gate ctx "and" Cell_kind.And [| a; b |]
let or2 ctx a b = gate ctx "or" Cell_kind.Or [| a; b |]
let xor2 ctx a b = gate ctx "xor" Cell_kind.Xor [| a; b |]
let nor2 ctx a b = gate ctx "nor" Cell_kind.Nor [| a; b |]
let mux2 ctx a b s = gate ctx "mux" Cell_kind.Mux2 [| a; b; s |]

(* Full adder from 2 xors + aoi-style majority. *)
let full_adder ctx a b cin =
  let p = xor2 ctx a b in
  let s = xor2 ctx p cin in
  let g1 = and2 ctx a b in
  let g2 = and2 ctx p cin in
  let cout = or2 ctx g1 g2 in
  (s, cout)

(* Ripple-carry adder; the long carry chain is the critical path of the
   execute stage, just as in a real unoptimised core. *)
let adder ctx xs ys cin =
  let n = Array.length xs in
  let sums = Array.make n 0 in
  let carry = ref cin in
  for i = 0 to n - 1 do
    let s, c = full_adder ctx xs.(i) ys.(i) !carry in
    sums.(i) <- s;
    carry := c
  done;
  (sums, !carry)

(* Balanced mux tree selecting one of [inputs] (power of two) by the
   select bits, LSB first. *)
let rec mux_tree ctx (sels : int array) level (inputs : int array) =
  if Array.length inputs = 1 then inputs.(0)
  else begin
    let half = Array.length inputs / 2 in
    let next =
      Array.init half (fun i ->
          mux2 ctx inputs.(2 * i) inputs.((2 * i) + 1) sels.(level))
    in
    mux_tree ctx sels (level + 1) next
  end

let barrel_shift ctx (xs : int array) (sels : int array) =
  (* Left shifter: 5 mux stages, shifting in the LSB-side neighbour (a
     zero would need a constant; reusing bit 0 keeps the netlist pure
     logic with identical timing shape). *)
  let stage xs k sel =
    Array.init (Array.length xs) (fun i ->
        let shifted = if i >= k then xs.(i - k) else xs.(0) in
        mux2 ctx xs.(i) shifted sel)
  in
  let r = ref xs in
  Array.iteri (fun j sel -> r := stage !r (1 lsl j) sel) sels;
  !r

(* A small random two-level decode cloud over the given signals. *)
let random_cloud ctx inputs n_out =
  Array.init n_out (fun _ ->
      let pick () = Rng.pick ctx.rng inputs in
      let a = and2 ctx (pick ()) (pick ()) in
      let b = nor2 ctx (pick ()) (pick ()) in
      let c = xor2 ctx a b in
      if Rng.bool ctx.rng then inv ctx c else c)

let generate () =
  let b = B.create ~name:"plasma" () in
  let ctx = { b; n = 0; rng = Rng.of_string "plasma" } in
  (* External interface: memory read data, interrupt, a few control
     pins. *)
  let mem_rdata = Array.init word (fun i -> B.add_input b (Printf.sprintf "mem_rdata%d" i)) in
  let irq = B.add_input b "irq" in
  let stall = B.add_input b "mem_pause" in
  (* --- pipeline state ------------------------------------------- *)
  (* Deferred flops so clouds can reference their Q pins. *)
  let defer prefix n =
    Array.init n (fun i ->
        B.add_seq_deferred b (Printf.sprintf "%s%d" prefix i) ~role:Netlist.Flop)
  in
  let pc = defer "pc" word in
  let instr = defer "ir" word in
  let regfile =
    Array.init n_regs (fun r -> defer (Printf.sprintf "rf%d_" r) word)
  in
  let ex_a = defer "ex_a" word in
  let ex_b = defer "ex_b" word in
  let ex_imm = defer "ex_imm" word in
  let ex_ctl = defer "ex_ctl" 8 in
  let wb_res = defer "wb_res" word in
  let hi = defer "hi" word in
  let lo = defer "lo" word in
  let mem_addr = defer "mem_addr" word in
  let mem_wdata = defer "mem_wdata" word in
  (* --- fetch ------------------------------------------------------ *)
  (* PC + 4: ripple increment; branch target mux decides next PC. *)
  let four = Array.init word (fun i -> if i = 2 then irq else stall) in
  (* constants are modelled by external pins; timing-equivalent *)
  let pc_plus4, _ = adder ctx pc four stall in
  let branch_base = Array.map (fun x -> x) ex_imm in
  let branch_tgt, _ = adder ctx pc_plus4 branch_base irq in
  let take_branch =
    let cloud = random_cloud ctx (Array.append ex_ctl [| irq; stall |]) 3 in
    or2 ctx cloud.(0) (and2 ctx cloud.(1) cloud.(2))
  in
  let next_pc = Array.init word (fun i -> mux2 ctx pc_plus4.(i) branch_tgt.(i) take_branch) in
  Array.iteri (fun i ff -> B.connect b ff ~fanins:[| next_pc.(i) |]) pc;
  (* Instruction register: memory data muxed with the previous word on
     stall. *)
  Array.iteri
    (fun i ff -> B.connect b ff ~fanins:[| mux2 ctx mem_rdata.(i) instr.(i) stall |])
    instr;
  (* --- decode ----------------------------------------------------- *)
  let rs = Array.sub instr 21 5 in
  let rt = Array.sub instr 16 5 in
  let opcode = Array.sub instr 26 6 in
  let read_port sels =
    Array.init word (fun bit ->
        let column = Array.init n_regs (fun r -> regfile.(r).(bit)) in
        mux_tree ctx sels 0 column)
  in
  let a_val = read_port rs in
  let b_val = read_port rt in
  let ctl_cloud = random_cloud ctx (Array.append opcode [| irq |]) 24 in
  let imm =
    Array.init word (fun i ->
        if i < 16 then instr.(i) else mux2 ctx instr.(15) ctl_cloud.(0) ctl_cloud.(1))
  in
  Array.iteri (fun i ff -> B.connect b ff ~fanins:[| a_val.(i) |]) ex_a;
  Array.iteri (fun i ff -> B.connect b ff ~fanins:[| b_val.(i) |]) ex_b;
  Array.iteri (fun i ff -> B.connect b ff ~fanins:[| imm.(i) |]) ex_imm;
  Array.iteri (fun i ff -> B.connect b ff ~fanins:[| ctl_cloud.(2 + i) |]) ex_ctl;
  (* --- execute ---------------------------------------------------- *)
  let use_imm = ex_ctl.(0) in
  let opnd_b = Array.init word (fun i -> mux2 ctx ex_b.(i) ex_imm.(i) use_imm) in
  let sub_b = Array.init word (fun i -> xor2 ctx opnd_b.(i) ex_ctl.(1)) in
  let sum, cout = adder ctx ex_a sub_b ex_ctl.(1) in
  let log_and = Array.init word (fun i -> and2 ctx ex_a.(i) opnd_b.(i)) in
  let log_or = Array.init word (fun i -> or2 ctx ex_a.(i) opnd_b.(i)) in
  let log_xor = Array.init word (fun i -> xor2 ctx ex_a.(i) opnd_b.(i)) in
  let sh_amt = Array.sub ex_ctl 2 5 in
  let shifted = barrel_shift ctx ex_a sh_amt in
  let slt = xor2 ctx cout ex_a.(word - 1) in
  let alu =
    Array.init word (fun i ->
        let m1 = mux2 ctx sum.(i) log_and.(i) ex_ctl.(6) in
        let m2 = mux2 ctx log_or.(i) log_xor.(i) ex_ctl.(6) in
        let m3 = mux2 ctx m1 m2 ex_ctl.(7) in
        let m4 = mux2 ctx m3 shifted.(i) ex_ctl.(5) in
        if i = 0 then mux2 ctx m4 slt ex_ctl.(4) else m4)
  in
  Array.iteri (fun i ff -> B.connect b ff ~fanins:[| alu.(i) |]) wb_res;
  Array.iteri (fun i ff -> B.connect b ff ~fanins:[| sum.(i) |]) mem_addr;
  Array.iteri (fun i ff -> B.connect b ff ~fanins:[| ex_b.(i) |]) mem_wdata;
  (* HI/LO fed by a shifted-accumulate structure (stand-in for the
     serial multiplier). *)
  let acc, _ = adder ctx hi lo ex_ctl.(3) in
  Array.iteri (fun i ff -> B.connect b ff ~fanins:[| mux2 ctx acc.(i) ex_a.(i) ex_ctl.(2) |]) hi;
  Array.iteri
    (fun i ff ->
      B.connect b ff ~fanins:[| mux2 ctx lo.(i) sum.(i) ex_ctl.(3) |])
    lo;
  (* --- writeback --------------------------------------------------- *)
  let wb_val = Array.init word (fun i -> mux2 ctx wb_res.(i) mem_rdata.(i) ex_ctl.(4)) in
  let wdec = random_cloud ctx (Array.append (Array.sub instr 11 5) [| ex_ctl.(5) |]) n_regs in
  Array.iteri
    (fun r bank ->
      Array.iteri
        (fun i ff ->
          B.connect b ff ~fanins:[| mux2 ctx bank.(i) wb_val.(i) wdec.(r) |])
        bank)
    regfile;
  (* --- outputs ------------------------------------------------------ *)
  Array.iteri (fun i v -> ignore (B.add_output b (Printf.sprintf "mem_addr_o%d" i) ~fanin:v)) mem_addr;
  Array.iteri (fun i v -> ignore (B.add_output b (Printf.sprintf "mem_wdata_o%d" i) ~fanin:v)) mem_wdata;
  ignore (B.add_output b "mem_we" ~fanin:(and2 ctx ex_ctl.(6) ex_ctl.(7)));
  B.freeze b
