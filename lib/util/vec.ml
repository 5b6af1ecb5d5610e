type 'a t = { mutable data : 'a array; mutable len : int }

let create () = { data = [||]; len = 0 }

let length t = t.len

let check t i op =
  if i < 0 || i >= t.len then
    invalid_arg (Printf.sprintf "Vec.%s: index %d out of bounds (len %d)" op i t.len)

let get t i =
  check t i "get";
  t.data.(i)

let set t i x =
  check t i "set";
  t.data.(i) <- x

let grow t x =
  let cap = Array.length t.data in
  let cap' = if cap = 0 then 8 else 2 * cap in
  let data = Array.make cap' x in
  Array.blit t.data 0 data 0 t.len;
  t.data <- data

let add_last t x =
  if t.len = Array.length t.data then grow t x;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let pop_last t =
  if t.len = 0 then invalid_arg "Vec.pop_last: empty";
  t.len <- t.len - 1;
  t.data.(t.len)

let clear t = t.len <- 0
let is_empty t = t.len = 0

let iter f t =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

let iteri f t =
  for i = 0 to t.len - 1 do
    f i t.data.(i)
  done

let to_array t = Array.sub t.data 0 t.len

let to_list t =
  let rec go i acc = if i < 0 then acc else go (i - 1) (t.data.(i) :: acc) in
  go (t.len - 1) []

let of_list l =
  let t = create () in
  List.iter (add_last t) l;
  t
