(** Sizing defaults shared by the [rar generate] CLI and the bench
    scaling specs. Both must derive their numbers from here: the CLI's
    --help text documents these rules, and a BENCH_scale.json row is
    only reproducible from the CLI because the two agree. *)

val min_flops : int
val gates_per_flop : int
val min_ports : int
val gates_per_port : int
val min_nce : int
val flops_per_nce : int
val min_depth : int
val depth_log_factor : float
val src_bias_pct : int

val flops : gates:int -> int
(** [max min_flops (gates / gates_per_flop)]. *)

val ports : gates:int -> int
(** Primary inputs or outputs: [max min_ports (gates / gates_per_port)]. *)

val nce : flops:int -> int
(** [max min_nce (flops / flops_per_nce)]. *)

val depth : gates:int -> int
(** [max min_depth (round (depth_log_factor * ln gates))]. *)

val name : gates:int -> depth:int -> string
(** The canonical ["gen<gates>x<depth>"] circuit name (also the default
    RNG seed). *)

val scale_spec : gates:int -> Spec.t
(** The complete default spec for a gate count — what [rar generate
    --gates N] builds with no other flags, and what the bench scaling
    curve runs. *)
