(* Unit and property tests for the Rar_util substrate. *)

module Vec = Rar_util.Vec
module Heap = Rar_util.Heap
module Rng = Rar_util.Rng
module Pool = Rar_util.Pool
module Json = Rar_util.Json
module Deadline = Rar_util.Deadline

let test_vec_basic () =
  let v = Vec.create () in
  Alcotest.(check bool) "empty" true (Vec.is_empty v);
  for i = 0 to 99 do
    Vec.add_last v i
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get" 42 (Vec.get v 42);
  Vec.set v 42 (-1);
  Alcotest.(check int) "set" (-1) (Vec.get v 42);
  Alcotest.(check int) "pop" 99 (Vec.pop_last v);
  Alcotest.(check int) "len after pop" 99 (Vec.length v);
  Alcotest.(check (list int)) "to_list tail" [ 0; 1; 2 ]
    (List.filteri (fun i _ -> i < 3) (Vec.to_list v))

let test_vec_bounds () =
  let v = Vec.of_list [ 1; 2; 3 ] in
  Alcotest.check_raises "get oob" (Invalid_argument "Vec.get: index 3 out of bounds (len 3)")
    (fun () -> ignore (Vec.get v 3))

(* The top entry of [h], removed: the simulator's read-then-remove. *)
let heap_pop h =
  if h.Heap.size = 0 then None
  else begin
    let top = (h.Heap.prio.(0), h.Heap.items.(0)) in
    Heap.remove_min h;
    Some top
  end

let test_heap_sorts () =
  let h = Heap.create () in
  let input = [ 5.; 1.; 4.; 1.5; 9.; 0.; 2. ] in
  List.iter (fun p -> Heap.add h p (int_of_float (p *. 10.))) input;
  let rec drain acc =
    match heap_pop h with
    | None -> List.rev acc
    | Some (p, _) -> drain (p :: acc)
  in
  Alcotest.(check (list (float 1e-9)))
    "ascending" (List.sort compare input) (drain [])

let test_heap_empty () =
  let h = Heap.create () in
  Alcotest.(check int) "empty" 0 h.Heap.size;
  Alcotest.check_raises "remove from empty"
    (Invalid_argument "Heap.remove_min: empty heap") (fun () ->
      Heap.remove_min h);
  Heap.add h 1.5 7;
  Alcotest.(check bool) "pop last" true (heap_pop h = Some (1.5, 7));
  Alcotest.(check int) "drained" 0 h.Heap.size

let test_rng_deterministic () =
  let a = Rng.make 7 and b = Rng.make 7 in
  for _ = 1 to 50 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_of_string_stable () =
  let a = Rng.of_string "s1196" and b = Rng.of_string "s1196" in
  Alcotest.(check int) "named stream" (Rng.int a 1000000) (Rng.int b 1000000);
  let c = Rng.of_string "s1238" in
  (* Different names should (overwhelmingly) diverge quickly. *)
  let diverged = ref false in
  let a = Rng.of_string "s1196" in
  for _ = 1 to 10 do
    if Rng.int a 1000000 <> Rng.int c 1000000 then diverged := true
  done;
  Alcotest.(check bool) "streams diverge" true !diverged

(* Pool: run each scenario at both pool sizes so the sequential
   fallback (size 1) and the true parallel path (size 4) are covered
   by the same assertions. [set_jobs] is restored to 1 afterwards so
   later suites see the default sequential behaviour. *)
let with_jobs j f =
  Pool.set_jobs j;
  Fun.protect ~finally:(fun () -> Pool.set_jobs 1) f

(* A stateless map over [Pool.map_adaptive_with]. Any map of two or
   more elements takes the pooled path at a pool size above 1; the
   scenarios map [pooled] elements, many per participant. *)
let pmap xs f = Pool.map_adaptive_with ~init:ignore xs (fun () x -> f x)
let pooled = 1024

let test_pool_map_ordering () =
  List.iter
    (fun j ->
      with_jobs j (fun () ->
          Alcotest.(check int) "jobs" j (Pool.jobs ());
          let xs = Array.init pooled Fun.id in
          let expect = Array.map (fun x -> (3 * x) + 1) xs in
          Alcotest.(check (array int))
            (Printf.sprintf "map order (jobs=%d)" j)
            expect
            (pmap xs (fun x -> (3 * x) + 1))))
    [ 1; 4 ]

let test_pool_self_sizing () =
  (* [jobs] reports the requested ceiling; [effective_jobs] is what a
     dispatch can actually use after the host clamp — and either way a
     map is still exactly Array.map. *)
  Alcotest.(check bool) "host_cores >= 1" true (Pool.host_cores () >= 1);
  with_jobs 5 (fun () ->
      Alcotest.(check int) "jobs () is the request" 5 (Pool.jobs ());
      Alcotest.(check int) "effective_jobs clamps to host"
        (Int.min 5 (Pool.host_cores ()))
        (Pool.effective_jobs ());
      let xs = Array.init pooled Fun.id in
      Alcotest.(check (array int)) "map = Array.map under oversubscription"
        (Array.map succ xs)
        (pmap xs succ))

exception Boom of int

let test_pool_exception_propagation () =
  List.iter
    (fun j ->
      with_jobs j (fun () ->
          let xs = Array.init pooled Fun.id in
          match pmap xs (fun x -> if x >= 600 then raise (Boom x) else x) with
          | _ -> Alcotest.fail "expected exception from pool task"
          | exception Boom i ->
            (* Lowest-index raiser wins, as in sequential Array.map,
               although later elements raise too. *)
            Alcotest.(check int)
              (Printf.sprintf "lowest index re-raised (jobs=%d)" j)
              600 i))
    [ 1; 4 ]

let test_pool_worker_survives_raise () =
  (* A raising task used to kill its worker domain, leaving the next
     batch waiting on a pool with fewer live workers; the worker loop
     must outlive anything a task throws. *)
  with_jobs 4 (fun () ->
      for round = 1 to 3 do
        let xs = Array.init pooled Fun.id in
        (match pmap xs (fun x -> if x mod 2 = 0 then raise (Boom x) else x)
         with
        | _ -> Alcotest.fail "expected exception from pool task"
        | exception Boom _ -> ());
        let r = pmap xs (fun x -> x + 1) in
        Alcotest.(check int)
          (Printf.sprintf "pool alive after raising batch %d" round)
          pooled r.(pooled - 1)
      done)

let test_pool_size_clamp () =
  Pool.set_jobs (-3);
  Alcotest.(check int) "clamped to 1" 1 (Pool.jobs ());
  (* Size-1 pool spawns no domains: even a batch large enough for the
     pool must run in the calling domain. *)
  let here = Domain.self () in
  let doms = pmap (Array.make pooled 0) (fun _ -> Domain.self ()) in
  Array.iter
    (fun d -> Alcotest.(check bool) "ran in caller" true (d = here))
    doms

let test_pool_nested_map () =
  (* A nested map from inside a worker task must not deadlock the
     fixed pool: inner calls degrade to sequential evaluation. Both
     maps would take the pooled path on their own. *)
  with_jobs 2 (fun () ->
      let got =
        pmap (Array.init 512 Fun.id) (fun x ->
            Array.fold_left ( + ) 0
              (pmap (Array.init 512 Fun.id) (fun y -> (x * 1000) + y)))
      in
      let expect = Array.init 512 (fun x -> (512_000 * x) + 130_816) in
      Alcotest.(check (array int)) "nested map" expect got)

let test_pool_map_with_state () =
  (* Each participant builds its state once, in its own domain, and
     shares it with no other: every element is served exactly once, by
     one of at most [min (effective_jobs ()) n] states, each built in a
     different domain. *)
  List.iter
    (fun j ->
      with_jobs j (fun () ->
          let inits = Atomic.make 0 in
          let built = ref [] and lock = Mutex.create () in
          let init () =
            Atomic.incr inits;
            let st = (Domain.self (), ref 0) in
            Mutex.protect lock (fun () -> built := st :: !built);
            st
          in
          Alcotest.(check int) "empty array builds no state" 0
            (Array.length
               (Pool.map_adaptive_with ~init [||] (fun _ (x : int) -> x)));
          Alcotest.(check int) "no init for an empty array" 0
            (Atomic.get inits);
          let n = 2000 in
          let xs = Array.init n Fun.id in
          let got =
            Pool.map_adaptive_with ~init xs (fun ((_, served) as st) x ->
                incr served;
                (3 * x, st))
          in
          Alcotest.(check (array int))
            (Printf.sprintf "results (jobs=%d)" j)
            (Array.map (fun x -> 3 * x) xs)
            (Array.map fst got);
          let built = !built in
          Alcotest.(check bool) "every element served by a built state" true
            (Array.for_all (fun (_, st) -> List.memq st built) got);
          Alcotest.(check bool) "at most one state per participant" true
            (List.length built <= Int.min (Pool.effective_jobs ()) n);
          Alcotest.(check int) "one state per domain" (List.length built)
            (List.length (List.sort_uniq compare (List.map fst built)));
          Alcotest.(check int) "each element served once" n
            (List.fold_left (fun acc (_, served) -> acc + !served) 0 built);
          if j = 1 then
            Alcotest.(check int) "sequential path builds one state" 1
              (Atomic.get inits)))
    [ 1; 4 ]

let test_pool_work_bound () =
  (* [max_participants] caps the participants, and the pool asks it
     only where the call could go parallel: never at one job, for one
     element or from inside a pool task. *)
  let asked = Atomic.make 0 in
  let states xs ~bound =
    let built = Atomic.make 0 in
    let got =
      Pool.map_adaptive_with
        ~max_participants:(fun () ->
          Atomic.incr asked;
          bound)
        ~init:(fun () -> Atomic.incr built)
        xs
        (fun () x -> x + 1)
    in
    Alcotest.(check (array int)) "results" (Array.map succ xs) got;
    Atomic.get built
  in
  let xs = Array.init pooled Fun.id in
  with_jobs 1 (fun () ->
      Alcotest.(check int) "one state at one job" 1 (states xs ~bound:4);
      Alcotest.(check int) "bound not asked at one job" 0 (Atomic.get asked));
  with_jobs 4 (fun () ->
      Alcotest.(check int) "one state for one element" 1
        (states [| 1 |] ~bound:4);
      Alcotest.(check int) "bound not asked for one element" 0
        (Atomic.get asked);
      Alcotest.(check int) "a bound of 1 runs in place" 1
        (states xs ~bound:1);
      Alcotest.(check int) "bound asked once where the call could go parallel"
        (if Pool.effective_jobs () >= 2 then 1 else 0)
        (Atomic.get asked);
      Alcotest.(check bool) "at most two states under a bound of 2" true
        (states xs ~bound:2 <= 2);
      Atomic.set asked 0;
      ignore (pmap [| 1; 2 |] (fun _ -> states xs ~bound:4));
      Alcotest.(check int) "bound not asked from inside a pool task" 0
        (Atomic.get asked))

let prop_heap_matches_sort =
  QCheck.Test.make ~name:"heap drains in sorted order" ~count:200
    QCheck.(list (float_bound_exclusive 1000.))
    (fun input ->
      let h = Heap.create () in
      List.iter (fun p -> Heap.add h p 0) input;
      let rec drain acc =
        match heap_pop h with
        | None -> List.rev acc
        | Some (p, _) -> drain (p :: acc)
      in
      drain [] = List.sort compare input)

(* The textbook swap heap: entries are swapped up while strictly
   smaller than their parent and down into the smaller child, the left
   one on a tie. [Heap]'s hole-moving sifts must pop equal priorities
   in exactly this order; the simulator's event order depends on
   it. *)
module Swap_heap = struct
  type t = { mutable a : (float * int) array; mutable n : int }

  let create () = { a = Array.make 4 (0., 0); n = 0 }

  let swap h i j =
    let x = h.a.(i) in
    h.a.(i) <- h.a.(j);
    h.a.(j) <- x

  let rec up h i =
    let p = (i - 1) / 2 in
    if i > 0 && fst h.a.(i) < fst h.a.(p) then begin
      swap h i p;
      up h p
    end

  let rec down h i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 and s = ref i in
    if l < h.n && fst h.a.(l) < fst h.a.(!s) then s := l;
    if r < h.n && fst h.a.(r) < fst h.a.(!s) then s := r;
    if !s <> i then begin
      swap h i !s;
      down h !s
    end

  let add h p x =
    if h.n = Array.length h.a then h.a <- Array.append h.a h.a;
    h.a.(h.n) <- (p, x);
    h.n <- h.n + 1;
    up h (h.n - 1)

  let pop h =
    if h.n = 0 then None
    else begin
      let top = h.a.(0) in
      h.n <- h.n - 1;
      h.a.(0) <- h.a.(h.n);
      down h 0;
      Some top
    end
end

(* [Some p] adds priority [p] (few values, so many ties) tagged with
   its position in the script; [None] pops. Every pop, and the final
   drain, must agree with the swap heap on priority and payload. *)
let prop_heap_tie_order =
  QCheck.Test.make ~name:"heap pops ties in swap-heap order" ~count:300
    QCheck.(list (option (int_bound 3)))
    (fun script ->
      let h = Heap.create () and r = Swap_heap.create () in
      let agree () = heap_pop h = Swap_heap.pop r in
      List.for_all Fun.id
        (List.mapi
           (fun i op ->
             match op with
             | Some p ->
               Heap.add h (float_of_int p) i;
               Swap_heap.add r (float_of_int p) i;
               true
             | None -> agree ())
           script)
      && List.for_all (fun _ -> agree ()) (List.init (List.length script + 1) Fun.id))

let prop_rng_int_in_bounds =
  QCheck.Test.make ~name:"rng int stays in bounds" ~count:500
    QCheck.(pair small_int (int_bound 1000))
    (fun (seed, bound) ->
      let bound = bound + 1 in
      let rng = Rng.make seed in
      let ok = ref true in
      for _ = 1 to 20 do
        let x = Rng.int rng bound in
        if x < 0 || x >= bound then ok := false
      done;
      !ok)

let prop_shuffle_is_permutation =
  QCheck.Test.make ~name:"shuffle permutes" ~count:200
    QCheck.(pair small_int (list small_int))
    (fun (seed, l) ->
      let a = Array.of_list l in
      Rng.shuffle (Rng.make seed) a;
      List.sort compare (Array.to_list a) = List.sort compare l)

(* --- Json parser --------------------------------------------------- *)

let test_json_parse_basics () =
  let ok s = match Json.of_string s with Ok v -> v | Error e -> Alcotest.fail e in
  Alcotest.(check bool) "null" true (ok "null" = Json.Null);
  Alcotest.(check bool) "bools" true
    (ok " true " = Json.Bool true && ok "false" = Json.Bool false);
  Alcotest.(check bool) "int" true (ok "-42" = Json.Int (-42));
  Alcotest.(check bool) "float" true (ok "2.5e1" = Json.Float 25.);
  Alcotest.(check bool) "string escapes" true
    (ok {|"a\n\"b\"A"|} = Json.String "a\n\"b\"A");
  Alcotest.(check bool) "nested" true
    (ok {|{"a":[1,{"b":null}],"c":""}|}
    = Json.Obj
        [ ("a", Json.List [ Json.Int 1; Json.Obj [ ("b", Json.Null) ] ]);
          ("c", Json.String "") ]);
  Alcotest.(check bool) "empty containers" true
    (ok "[ ]" = Json.List [] && ok "{ }" = Json.Obj [])

let test_json_parse_diag_positions () =
  let fail_at s (line, col) =
    match Json.of_string_diag ~file:"t.json" s with
    | Ok _ -> Alcotest.failf "%S must not parse" s
    | Error d ->
      Alcotest.(check (pair int int))
        (Printf.sprintf "position of error in %S" s)
        (line, col)
        (d.Rar_util.Diag.line, d.Rar_util.Diag.col);
      Alcotest.(check (option string)) "file carried" (Some "t.json")
        d.Rar_util.Diag.file
  in
  fail_at "" (1, 1);
  fail_at "{\"a\":}" (1, 6);
  fail_at "[1,2" (1, 5);
  fail_at "{\n \"a\": nul\n}" (2, 7);
  fail_at "[1] trailing" (1, 5);
  (* member/typed accessors *)
  let j =
    match Json.of_string {|{"s":"x","i":3,"b":true,"f":1.5}|} with
    | Ok j -> j
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check (option string)) "member_string" (Some "x")
    (Json.member_string "s" j);
  Alcotest.(check (option int)) "member_int" (Some 3) (Json.member_int "i" j);
  Alcotest.(check bool) "member_bool" true
    (Json.member_bool "b" j = Some true);
  Alcotest.(check bool) "member_float coerces" true
    (Json.member_float "i" j = Some 3.);
  Alcotest.(check (option int)) "mistyped member" None (Json.member_int "s" j)

(* Round-trip fuzz against the emitter. Floats are drawn from values
   whose [%.12g] rendering re-reads exactly, so equality is [=]. *)
let json_gen =
  let open QCheck.Gen in
  let scalar =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) small_signed_int;
        (* non-integral only: the emitter renders integral floats as
           bare integers, which correctly re-read as [Int] *)
        map
          (fun x -> Json.Float x)
          (oneofl [ 1.5; -2.25; 312.54; -0.0078125; 0.15625 ]);
        map (fun s -> Json.String s) string_printable;
      ]
  in
  let rec value depth =
    if depth = 0 then scalar
    else
      frequency
        [
          (3, scalar);
          (1, map (fun l -> Json.List l) (list_size (int_bound 4) (value (depth - 1))));
          ( 1,
            map
              (fun kvs -> Json.Obj kvs)
              (list_size (int_bound 4)
                 (pair string_printable (value (depth - 1)))) );
        ]
  in
  value 3

let prop_json_roundtrip =
  QCheck.Test.make ~name:"json emit/parse round-trip" ~count:500
    (QCheck.make ~print:(fun j -> Json.to_string j) json_gen)
    (fun j ->
      match Json.of_string (Json.to_string j) with
      | Ok j' -> j = j'
      | Error e -> QCheck.Test.fail_reportf "re-parse failed: %s" e)

(* Parsing arbitrary garbage must return [Error], never raise. *)
let prop_json_parse_total =
  QCheck.Test.make ~name:"json parser is total" ~count:500
    QCheck.(string_of_size (QCheck.Gen.int_bound 40))
    (fun s ->
      match Json.of_string_diag s with
      | Ok _ | Error _ -> true)

(* --- Deadline cancellation ----------------------------------------- *)

let test_deadline_global_cancel () =
  let d = Deadline.make ~budget_s:Float.infinity in
  Deadline.request_cancel ~reason:"sigterm";
  Fun.protect ~finally:Deadline.clear_cancel (fun () ->
      Alcotest.(check bool) "pending visible" true
        (Deadline.cancel_pending () = Some "sigterm");
      match Deadline.force_check d ~phase:"x" with
      | exception Deadline.Expired { phase; _ } ->
        Alcotest.(check string) "global reason" "cancel:sigterm" phase
      | () -> Alcotest.fail "global cancel must trip every live token");
  (* cleared: the same token is usable again *)
  Deadline.force_check d ~phase:"x"

let test_deadline_sample_hook () =
  let d = Deadline.make ~budget_s:Float.infinity in
  let phases = ref [] in
  Deadline.set_on_sample d (fun ~phase -> phases := phase :: !phases);
  Deadline.force_check d ~phase:"a";
  Deadline.force_check d ~phase:"b";
  Alcotest.(check (list string)) "hook saw each sample" [ "b"; "a" ] !phases

(* --- Pool.submit --------------------------------------------------- *)

let test_pool_submit () =
  let n = 16 in
  let done_count = ref 0 in
  let lock = Mutex.create () in
  let cond = Condition.create () in
  let seen_nested = Atomic.make true in
  for i = 0 to n - 1 do
    Pool.submit (fun () ->
        (* nested maps from a submitted task must take the sequential
           path, like any pool-worker context *)
        let r = pmap (Array.init 512 Fun.id) (fun x -> x + i) in
        if r.(511) <> 511 + i then Atomic.set seen_nested false;
        Mutex.lock lock;
        incr done_count;
        if !done_count = n then Condition.broadcast cond;
        Mutex.unlock lock)
  done;
  Mutex.lock lock;
  while !done_count < n do
    Condition.wait cond lock
  done;
  Mutex.unlock lock;
  Alcotest.(check int) "all tasks ran" n !done_count;
  Alcotest.(check bool) "nested maps fine" true (Atomic.get seen_nested)

let suite =
  [
    Alcotest.test_case "vec basic ops" `Quick test_vec_basic;
    Alcotest.test_case "vec bounds check" `Quick test_vec_bounds;
    Alcotest.test_case "heap sorts" `Quick test_heap_sorts;
    Alcotest.test_case "heap empty" `Quick test_heap_empty;
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng named streams" `Quick test_rng_of_string_stable;
    Alcotest.test_case "pool preserves order" `Quick test_pool_map_ordering;
    Alcotest.test_case "pool self-sizing clamps to host" `Quick
      test_pool_self_sizing;
    Alcotest.test_case "pool propagates exceptions" `Quick
      test_pool_exception_propagation;
    Alcotest.test_case "pool workers survive raising tasks" `Quick
      test_pool_worker_survives_raise;
    Alcotest.test_case "pool size-1 fallback" `Quick test_pool_size_clamp;
    Alcotest.test_case "pool per-participant state" `Quick
      test_pool_map_with_state;
    Alcotest.test_case "pool work bound" `Quick test_pool_work_bound;
    Alcotest.test_case "pool nested map" `Quick test_pool_nested_map;
    Alcotest.test_case "pool submit" `Quick test_pool_submit;
    Alcotest.test_case "json parse basics" `Quick test_json_parse_basics;
    Alcotest.test_case "json diag positions" `Quick
      test_json_parse_diag_positions;
    Alcotest.test_case "deadline global cancel" `Quick
      test_deadline_global_cancel;
    Alcotest.test_case "deadline sample hook" `Quick test_deadline_sample_hook;
    QCheck_alcotest.to_alcotest prop_json_roundtrip;
    QCheck_alcotest.to_alcotest prop_json_parse_total;
    QCheck_alcotest.to_alcotest prop_heap_matches_sort;
    QCheck_alcotest.to_alcotest prop_heap_tie_order;
    QCheck_alcotest.to_alcotest prop_rng_int_in_bounds;
    QCheck_alcotest.to_alcotest prop_shuffle_is_permutation;
  ]
