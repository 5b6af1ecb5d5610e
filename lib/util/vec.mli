(** Growable arrays (OCaml 5.1 has no [Dynarray] yet). *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int
val get : 'a t -> int -> 'a
val set : 'a t -> int -> 'a -> unit
val add_last : 'a t -> 'a -> unit
val pop_last : 'a t -> 'a
(** Raises [Invalid_argument] when empty. *)

val clear : 'a t -> unit
val is_empty : 'a t -> bool
val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val to_array : 'a t -> 'a array
val to_list : 'a t -> 'a list
val of_list : 'a list -> 'a t
