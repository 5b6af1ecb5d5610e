type t =
  | Buf
  | Inv
  | And
  | Nand
  | Or
  | Nor
  | Xor
  | Xnor
  | Aoi21
  | Oai21
  | Mux2

let all = [ Buf; Inv; And; Nand; Or; Nor; Xor; Xnor; Aoi21; Oai21; Mux2 ]

let name = function
  | Buf -> "buf"
  | Inv -> "inv"
  | And -> "and"
  | Nand -> "nand"
  | Or -> "or"
  | Nor -> "nor"
  | Xor -> "xor"
  | Xnor -> "xnor"
  | Aoi21 -> "aoi21"
  | Oai21 -> "oai21"
  | Mux2 -> "mux2"

(* [s.[pos .. pos+len-1]] spells the lower-case [lit], ignoring ASCII
   case. Top-level and closure-free: a parser calls it per token. *)
let rec sub_is_from s pos len lit k =
  k = len
  || Char.lowercase_ascii s.[pos + k] = lit.[k]
     && sub_is_from s pos len lit (k + 1)

let sub_is s pos len lit =
  len = String.length lit && sub_is_from s pos len lit 0

let of_sub s pos len =
  if sub_is s pos len "nand" then Some Nand
  else if sub_is s pos len "nor" then Some Nor
  else if sub_is s pos len "and" then Some And
  else if sub_is s pos len "or" then Some Or
  else if sub_is s pos len "inv" || sub_is s pos len "not" then Some Inv
  else if sub_is s pos len "buf" || sub_is s pos len "buff" then Some Buf
  else if sub_is s pos len "xor" then Some Xor
  else if sub_is s pos len "xnor" then Some Xnor
  else if sub_is s pos len "aoi21" then Some Aoi21
  else if sub_is s pos len "oai21" then Some Oai21
  else if sub_is s pos len "mux2" || sub_is s pos len "mux" then Some Mux2
  else None

let of_name s = of_sub s 0 (String.length s)

let arity = function
  | Buf | Inv -> Some 1
  | Aoi21 | Oai21 | Mux2 -> Some 3
  | And | Nand | Or | Nor | Xor | Xnor -> None

let min_arity = function
  | Buf | Inv -> 1
  | And | Nand | Or | Nor | Xor | Xnor -> 2
  | Aoi21 | Oai21 | Mux2 -> 3

let valid_arity k n =
  match arity k with Some a -> n = a | None -> n >= min_arity k

let check_arity k inputs =
  if not (valid_arity k (Array.length inputs)) then
    invalid_arg
      (Printf.sprintf "Cell_kind.eval: %s cannot take %d inputs" (name k)
         (Array.length inputs))

(* Pin [i] of the gate is [values.(pins.(lo + i))]; nothing allocates. *)
let rec all_true values pins p hi =
  p >= hi || (values.(pins.(p)) && all_true values pins (p + 1) hi)

let rec any_true values pins p hi =
  p < hi && (values.(pins.(p)) || any_true values pins (p + 1) hi)

let rec parity values pins p hi acc =
  if p >= hi then acc else parity values pins (p + 1) hi (acc <> values.(pins.(p)))

let eval_at k values pins lo hi =
  match k with
  | Buf -> values.(pins.(lo))
  | Inv -> not values.(pins.(lo))
  | And -> all_true values pins lo hi
  | Nand -> not (all_true values pins lo hi)
  | Or -> any_true values pins lo hi
  | Nor -> not (any_true values pins lo hi)
  | Xor -> parity values pins lo hi false
  | Xnor -> parity values pins lo hi true
  | Aoi21 -> not ((values.(pins.(lo)) && values.(pins.(lo + 1))) || values.(pins.(lo + 2)))
  | Oai21 -> not ((values.(pins.(lo)) || values.(pins.(lo + 1))) && values.(pins.(lo + 2)))
  | Mux2 -> if values.(pins.(lo + 2)) then values.(pins.(lo + 1)) else values.(pins.(lo))

let eval k inputs =
  check_arity k inputs;
  let n = Array.length inputs in
  eval_at k inputs (Array.init n Fun.id) 0 n

type unateness = Positive | Negative | Non_unate

let unateness k pin =
  match k with
  | Buf | And | Or -> Positive
  | Inv | Nand | Nor | Aoi21 | Oai21 -> Negative
  | Xor | Xnor -> Non_unate
  | Mux2 -> if pin = 2 then Non_unate else Positive

let pp ppf k = Format.pp_print_string ppf (name k)
