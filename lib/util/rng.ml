type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let make seed = { state = Int64.of_int seed }

let of_string s =
  (* FNV-1a over the bytes, then into splitmix. *)
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001B3L)
    s;
  { state = !h }

let next t =
  t.state <- Int64.add t.state golden;
  mix t.state

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound <= 0";
  (* Shift by 2 so the value fits OCaml's 63-bit int non-negatively. *)
  let r = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  r mod bound

let bool t = Int64.logand (next t) 1L = 1L

let range t lo hi =
  if lo > hi then invalid_arg "Rng.range: lo > hi";
  lo + int t (hi - lo + 1)

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done
