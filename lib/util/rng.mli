(** Deterministic splittable RNG (splitmix64).

    Every stochastic component of this project (benchmark generators,
    error-rate simulation vectors) draws from an explicit [Rng.t] so
    results are reproducible from a named seed; nothing consults the
    global [Random] state. *)

type t

val make : int -> t
(** Seeded generator. *)

val of_string : string -> t
(** Seed derived from a name, so each benchmark circuit has a stable
    identity across runs. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound); [bound > 0]. *)

val bool : t -> bool

val range : t -> int -> int -> int
(** [range t lo hi] is uniform in [lo, hi] inclusive; [lo <= hi]. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates. *)
