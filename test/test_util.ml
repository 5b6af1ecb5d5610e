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

let test_heap_sorts () =
  let h = Heap.create () in
  let input = [ 5.; 1.; 4.; 1.5; 9.; 0.; 2. ] in
  List.iter (fun p -> Heap.add h p (int_of_float (p *. 10.))) input;
  let rec drain acc =
    match Heap.pop_min h with
    | None -> List.rev acc
    | Some (p, _) -> drain (p :: acc)
  in
  Alcotest.(check (list (float 1e-9)))
    "ascending" (List.sort compare input) (drain [])

let test_heap_empty () =
  let h = Heap.create () in
  Alcotest.(check bool) "pop empty" true (Heap.pop_min h = None);
  Alcotest.(check bool) "peek empty" true (Heap.peek_min h = None)

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

let test_pool_map_ordering () =
  List.iter
    (fun j ->
      with_jobs j (fun () ->
          Alcotest.(check int) "jobs" j (Pool.jobs ());
          let xs = Array.init 100 Fun.id in
          let expect = Array.map (fun x -> (3 * x) + 1) xs in
          Alcotest.(check (array int))
            (Printf.sprintf "map order (jobs=%d)" j)
            expect
            (Pool.map xs (fun x -> (3 * x) + 1));
          Alcotest.(check (list string))
            (Printf.sprintf "run order (jobs=%d)" j)
            [ "a"; "b"; "c" ]
            (Pool.run [ (fun () -> "a"); (fun () -> "b"); (fun () -> "c") ])))
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
      let xs = Array.init 257 Fun.id in
      Alcotest.(check (array int)) "map = Array.map under oversubscription"
        (Array.map succ xs)
        (Pool.map xs succ))

exception Boom of int

let test_pool_exception_propagation () =
  List.iter
    (fun j ->
      with_jobs j (fun () ->
          let xs = Array.init 64 Fun.id in
          match Pool.map xs (fun x -> if x >= 20 then raise (Boom x) else x) with
          | _ -> Alcotest.fail "expected exception from pool task"
          | exception Boom i ->
            (* Lowest-index raiser wins, as in sequential Array.map. *)
            Alcotest.(check int)
              (Printf.sprintf "lowest index re-raised (jobs=%d)" j)
              20 i))
    [ 1; 4 ]

let test_pool_worker_survives_raise () =
  (* A raising task used to kill its worker domain, leaving the next
     batch waiting on a pool with fewer live workers; the worker loop
     must outlive anything a task throws. *)
  with_jobs 4 (fun () ->
      for round = 1 to 3 do
        let xs = Array.init 64 Fun.id in
        (match Pool.map xs (fun x -> if x mod 2 = 0 then raise (Boom x) else x)
         with
        | _ -> Alcotest.fail "expected exception from pool task"
        | exception Boom _ -> ());
        let r = Pool.map xs (fun x -> x + 1) in
        Alcotest.(check int)
          (Printf.sprintf "pool alive after raising batch %d" round)
          64 r.(63)
      done)

let test_pool_size_clamp () =
  Pool.set_jobs (-3);
  Alcotest.(check int) "clamped to 1" 1 (Pool.jobs ());
  (* Size-1 pool spawns no domains: map must run in the calling domain. *)
  let here = Domain.self () in
  let doms = Pool.map [| 0; 1; 2 |] (fun _ -> Domain.self ()) in
  Array.iter
    (fun d -> Alcotest.(check bool) "ran in caller" true (d = here))
    doms

let test_pool_nested_map () =
  (* Nested Pool.map from inside a worker task must not deadlock the
     fixed pool: inner calls degrade to sequential evaluation. *)
  with_jobs 2 (fun () ->
      let got =
        Pool.map (Array.init 8 Fun.id) (fun x ->
            Array.fold_left ( + ) 0
              (Pool.map (Array.init 5 Fun.id) (fun y -> (x * 10) + y)))
      in
      let expect = Array.init 8 (fun x -> (50 * x) + 10) in
      Alcotest.(check (array int)) "nested map" expect got)

let test_pool_map_with_chunk_state () =
  (* Each chunk builds its state once and shares it with no other
     chunk: every element records the state that served it, the states
     served contiguous ranges, and their counts add up. *)
  List.iter
    (fun j ->
      with_jobs j (fun () ->
          let inits = Atomic.make 0 in
          let init () =
            Atomic.incr inits;
            ref 0
          in
          Alcotest.(check int) "empty array builds no state" 0
            (Array.length
               (Pool.map_adaptive_with ~init [||] (fun _ (x : int) -> x)));
          Alcotest.(check int) "no init for an empty array" 0
            (Atomic.get inits);
          let xs = Array.init 2000 Fun.id in
          let got =
            Pool.map_adaptive_with ~init xs (fun served x ->
                incr served;
                (3 * x, served))
          in
          Alcotest.(check (array int))
            (Printf.sprintf "results (jobs=%d)" j)
            (Array.map (fun x -> 3 * x) xs)
            (Array.map fst got);
          let runs = ref [] in
          Array.iteri
            (fun i (_, st) ->
              if i = 0 || snd got.(i - 1) != st then runs := st :: !runs)
            got;
          Alcotest.(check int) "one contiguous run per state" (Atomic.get inits)
            (List.length !runs);
          Alcotest.(check int) "states served every element" 2000
            (List.fold_left (fun acc st -> acc + !st) 0 !runs);
          if j = 1 then
            Alcotest.(check int) "sequential path builds one state" 1
              (Atomic.get inits)))
    [ 1; 4 ]

let prop_heap_matches_sort =
  QCheck.Test.make ~name:"heap drains in sorted order" ~count:200
    QCheck.(list (float_bound_exclusive 1000.))
    (fun input ->
      let h = Heap.create () in
      List.iter (fun p -> Heap.add h p 0) input;
      let rec drain acc =
        match Heap.pop_min h with
        | None -> List.rev acc
        | Some (p, _) -> drain (p :: acc)
      in
      drain [] = List.sort compare input)

(* The textbook swap heap: entries are swapped up while strictly
   smaller than their parent and down into the smaller child, the left
   one on a tie. [Heap]'s hole-moving sifts must pop equal priorities
   in exactly this order; the simulator's event order and the SSP
   Dijkstra's settle order depend on it. *)
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
      let agree () = Heap.pop_min h = Swap_heap.pop r in
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

let test_deadline_token_cancel () =
  let d = Deadline.make ~budget_s:Float.infinity in
  Deadline.force_check d ~phase:"before";
  Deadline.cancel d ~reason:"test";
  Alcotest.(check bool) "expired after cancel" true (Deadline.expired d);
  match Deadline.force_check d ~phase:"after" with
  | exception Deadline.Expired { phase; _ } ->
    Alcotest.(check string) "phase names the cancel" "cancel:test" phase
  | () -> Alcotest.fail "cancelled token must raise"

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
        let r = Pool.map (Array.init 8 Fun.id) (fun x -> x + i) in
        if Array.length r <> 8 then Atomic.set seen_nested false;
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
    Alcotest.test_case "pool per-chunk state" `Quick
      test_pool_map_with_chunk_state;
    Alcotest.test_case "pool nested map" `Quick test_pool_nested_map;
    Alcotest.test_case "pool submit" `Quick test_pool_submit;
    Alcotest.test_case "json parse basics" `Quick test_json_parse_basics;
    Alcotest.test_case "json diag positions" `Quick
      test_json_parse_diag_positions;
    Alcotest.test_case "deadline token cancel" `Quick
      test_deadline_token_cancel;
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
