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

let of_name s =
  match String.lowercase_ascii s with
  | "buf" | "buff" -> Some Buf
  | "inv" | "not" -> Some Inv
  | "and" -> Some And
  | "nand" -> Some Nand
  | "or" -> Some Or
  | "nor" -> Some Nor
  | "xor" -> Some Xor
  | "xnor" -> Some Xnor
  | "aoi21" -> Some Aoi21
  | "oai21" -> Some Oai21
  | "mux2" | "mux" -> Some Mux2
  | _ -> None

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

let eval k inputs =
  check_arity k inputs;
  match k with
  | Buf -> inputs.(0)
  | Inv -> not inputs.(0)
  | And -> Array.for_all Fun.id inputs
  | Nand -> not (Array.for_all Fun.id inputs)
  | Or -> Array.exists Fun.id inputs
  | Nor -> not (Array.exists Fun.id inputs)
  | Xor -> Array.fold_left (fun acc b -> if b then not acc else acc) false inputs
  | Xnor ->
    Array.fold_left (fun acc b -> if b then not acc else acc) true inputs
  | Aoi21 -> not ((inputs.(0) && inputs.(1)) || inputs.(2))
  | Oai21 -> not ((inputs.(0) || inputs.(1)) && inputs.(2))
  | Mux2 -> if inputs.(2) then inputs.(1) else inputs.(0)

type unateness = Positive | Negative | Non_unate

let unateness k pin =
  match k with
  | Buf | And | Or -> Positive
  | Inv | Nand | Nor | Aoi21 | Oai21 -> Negative
  | Xor | Xnor -> Non_unate
  | Mux2 -> if pin = 2 then Non_unate else Positive

let pp ppf k = Format.pp_print_string ppf (name k)
