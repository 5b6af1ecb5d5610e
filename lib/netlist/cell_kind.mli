(** Combinational cell functions.

    Each gate node in a netlist carries a [Cell_kind.t] describing its
    boolean function. The set mirrors a small standard-cell library:
    simple gates, a few complex AOI/OAI cells and a 2:1 mux. Arity is
    fixed per kind except for the n-ary simple gates, whose arity is
    recorded on the netlist node itself. *)

type t =
  | Buf
  | Inv
  | And
  | Nand
  | Or
  | Nor
  | Xor
  | Xnor
  | Aoi21  (** !(a*b + c), 3 inputs *)
  | Oai21  (** !((a+b) * c), 3 inputs *)
  | Mux2   (** s ? b : a, inputs ordered [a; b; s] *)

val all : t list
(** Every kind, in declaration order. *)

val name : t -> string
(** Lower-case library name, e.g. ["nand"]. *)

val of_name : string -> t option
(** Inverse of {!name}; case-insensitive. Also accepts the ISCAS89
    spelling ["not"] for {!Inv} and ["buff"] for {!Buf}. *)

val arity : t -> int option
(** [Some n] when the kind has a fixed arity, [None] for the n-ary
    simple gates ([And], [Nand], [Or], [Nor], [Xor], [Xnor]). *)

val min_arity : t -> int
(** Smallest legal number of inputs. *)

val valid_arity : t -> int -> bool
(** [valid_arity k n] holds when a [k]-gate may have [n] inputs. *)

val eval : t -> bool array -> bool
(** [eval k inputs] computes the boolean function. Raises
    [Invalid_argument] on an arity mismatch. *)

val eval_at : t -> bool array -> int array -> int -> int -> bool
(** [eval_at k values pins lo hi] is [k] applied to the inputs
    [values.(pins.(lo))], ..., [values.(pins.(hi - 1))] in pin order,
    without allocating: simulators pass their node values and a flat
    fanin slice (a [Netlist.Compact] pin range or a node's fanin
    array). The arity is not checked; {!eval} is this function over
    [inputs] itself. *)

type unateness = Positive | Negative | Non_unate

val unateness : t -> int -> unateness
(** [unateness k pin] is the unateness of output w.r.t. input [pin]:
    [Positive] when a rising input can only cause a rising output,
    [Negative] for the inverting gates, [Non_unate] when both arcs
    exist (XOR-like cells and mux select). Used by path-based STA to
    pair rise/fall arrivals with the correct pin-to-pin arcs. *)

val pp : Format.formatter -> t -> unit
