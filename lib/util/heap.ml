(* Two flat arrays of unboxed values: once they have grown, adding an
   entry allocates nothing and writes need no GC barrier. The sifts
   move a hole instead of swapping but make the comparisons of the
   textbook swap heap — strict [<], the left child chosen over an
   equal right one — so the pop order of equal priorities is a
   function of the push order alone. *)
type t = {
  mutable prio : float array;
  mutable items : int array;
  mutable size : int;
}

let create () = { prio = [||]; items = [||]; size = 0 }

let grow t =
  let cap = Int.max 16 (2 * t.size) in
  let prio = Array.make cap 0. and items = Array.make cap 0 in
  Array.blit t.prio 0 prio 0 t.size;
  Array.blit t.items 0 items 0 t.size;
  t.prio <- prio;
  t.items <- items

let add t p x =
  if t.size = Array.length t.items then grow t;
  let prio = t.prio and items = t.items in
  let i = ref t.size in
  t.size <- t.size + 1;
  while !i > 0 && p < prio.((!i - 1) / 2) do
    let parent = (!i - 1) / 2 in
    prio.(!i) <- prio.(parent);
    items.(!i) <- items.(parent);
    i := parent
  done;
  prio.(!i) <- p;
  items.(!i) <- x

let remove_min t =
  if t.size = 0 then invalid_arg "Heap.remove_min: empty heap";
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then begin
    let prio = t.prio and items = t.items in
    let p = prio.(last) and x = items.(last) in
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      let r = l + 1 in
      let c =
        if l < last && prio.(l) < p then
          if r < last && prio.(r) < prio.(l) then r else l
        else if r < last && prio.(r) < p then r
        else !i
      in
      if c = !i then sifting := false
      else begin
        prio.(!i) <- prio.(c);
        items.(!i) <- items.(c);
        i := c
      end
    done;
    prio.(!i) <- p;
    items.(!i) <- x
  end
