module Faults = Rar_resilience.Faults

(* Constraints [r(u) - r(v) <= bound] live in three growable int
   arrays, entry [i] of each in emission order; only [0 .. m - 1] is
   meaningful. Every reader (check, the binary-window scan, the
   closure network, the flow problem, the cache key) walks them in
   place. *)
type t = {
  n : int;
  mutable m : int;
  mutable u : int array;
  mutable v : int array;
  mutable bound : int array;
  coeff : float array;
}

let create ~n =
  if n <= 0 then invalid_arg "Difflp.create: n <= 0";
  {
    n;
    m = 0;
    u = Array.make 16 0;
    v = Array.make 16 0;
    bound = Array.make 16 0;
    coeff = Array.make n 0.;
  }

let var_count t = t.n

let check_var t x name =
  if x < 0 || x >= t.n then
    invalid_arg (Printf.sprintf "Difflp.%s: variable %d out of range" name x)

let grow t =
  let cap = 2 * Array.length t.u in
  let extend a =
    let a' = Array.make cap 0 in
    Array.blit a 0 a' 0 t.m;
    a'
  in
  t.u <- extend t.u;
  t.v <- extend t.v;
  t.bound <- extend t.bound

let add_constraint t ~u ~v ~bound =
  check_var t u "add_constraint";
  check_var t v "add_constraint";
  if u = v then begin
    if bound < 0 then
      invalid_arg "Difflp.add_constraint: r(u) - r(u) <= negative is infeasible"
    (* trivially true otherwise; drop *)
  end
  else begin
    if t.m = Array.length t.u then grow t;
    t.u.(t.m) <- u;
    t.v.(t.m) <- v;
    t.bound.(t.m) <- bound;
    t.m <- t.m + 1
  end

let add_objective t v a =
  check_var t v "add_objective";
  t.coeff.(v) <- t.coeff.(v) +. a

let iter_constraints t f =
  for i = 0 to t.m - 1 do
    f ~u:t.u.(i) ~v:t.v.(i) ~bound:t.bound.(i)
  done

let constraint_count t = t.m

let slack t r i =
  if i < 0 || i >= t.m then
    invalid_arg (Printf.sprintf "Difflp.slack: constraint %d out of range" i);
  t.bound.(i) - r.(t.u.(i)) + r.(t.v.(i))

type engine = Network_simplex | Ssp | Closure

let engine_name = function
  | Network_simplex -> "network-simplex"
  | Ssp -> "ssp"
  | Closure -> "closure"

let all_engines = [ Network_simplex; Ssp; Closure ]

let objective_value t r =
  let acc = ref 0. in
  Array.iteri (fun v a -> acc := !acc +. (a *. float_of_int r.(v))) t.coeff;
  !acc

let check t r =
  if Array.length r <> t.n then Error "solution length mismatch"
  else begin
    let i = ref 0 in
    while !i < t.m && r.(t.u.(!i)) - r.(t.v.(!i)) <= t.bound.(!i) do
      incr i
    done;
    if !i = t.m then Ok ()
    else
      let u = t.u.(!i) and v = t.v.(!i) in
      Error
        (Printf.sprintf "violated: r(%d) - r(%d) = %d > %d" u v
           (r.(u) - r.(v)) t.bound.(!i))
  end

let balanced t =
  Float.abs (Array.fold_left ( +. ) 0. t.coeff) <= 1e-6

let to_problem t =
  let p = Problem.create ~n:t.n in
  for i = 0 to t.m - 1 do
    ignore (Problem.add_arc p ~src:t.u.(i) ~dst:t.v.(i) ~cost:t.bound.(i))
  done;
  Array.iteri (fun v a -> if a <> 0. then Problem.add_demand p v a) t.coeff;
  p

let normalise reference r =
  let base = r.(reference) in
  Array.map (fun x -> x - base) r

type fallback_event = { failed : engine; retried : engine; reason : string }

let m_fallbacks = Rar_obs.Metrics.counter "solver_fallbacks"

(* Stable per-LP fault key: depends only on the LP shape, never on call
   order, so fault firing is reproducible under any domain scheduling. *)
let fault_key t = (t.n * 1_000_003) + t.m

(* The binary-window scan behind the default engine choice: every
   non-reference variable [x] carries both [x - ref <= 0] and
   [ref - x <= 1] (or tighter), and no bound is below -1. Then every
   feasible normalised solution lies in {-1, 0}, which is exactly the
   precondition of the closure reduction. One linear pass. *)
let binary_window t ~reference =
  let upper = Bytes.make t.n '\000' and lower = Bytes.make t.n '\000' in
  let ok = ref true in
  for i = 0 to t.m - 1 do
    let b = t.bound.(i) in
    if b < -1 then ok := false
    else begin
      if t.v.(i) = reference && b <= 0 then Bytes.set upper t.u.(i) '\001';
      if t.u.(i) = reference && b <= 1 then Bytes.set lower t.v.(i) '\001'
    end
  done;
  let v = ref 0 in
  while !ok && !v < t.n do
    if !v <> reference
       && (Bytes.get upper !v = '\000' || Bytes.get lower !v = '\000')
    then ok := false;
    incr v
  done;
  !ok

(* One engine behind the fallback chain. Faults only ever perturb the
   primary attempt ([faulty] = true); the fallback runs clean, so a
   faulted run still converges. A failed attempt also reports whether
   the verdict is definitive — a typed statement about the instance
   itself (infeasible, negative cycle, outside closure's window) that
   no other engine could overturn — so infeasible LPs stop paying a
   doomed fallback solve. Retryable failures (pivot cap, certificate
   rejection, injected faults) keep the engine-swap behaviour. Every
   accepted solution is gated on its engine's certificate (LP duality
   for the flow engines, flow value = cut capacity for closure); a
   solver bug or an injected [badcert] fault is caught there and
   routed to the alternate engine instead of reaching the caller. *)
let attempt ?deadline ~faulty t ~reference ~problem eng =
  let key = fault_key t in
  let certify ok detail =
    let ok = if faulty && Faults.flip_certificate ~key then not ok else ok in
    if ok then Ok ()
    else
      Error
        (Printf.sprintf "%s solution failed the optimality certificate (%s)"
           (engine_name eng) (Lazy.force detail), false)
  in
  let flow_result ~flow ~potentials =
    let report = Certificate.check (Lazy.force problem) ~flow ~potentials in
    Result.map
      (fun () -> normalise reference (Array.map (fun x -> -x) potentials))
      (certify
         (Certificate.is_optimal report)
         (lazy (Format.asprintf "%a" Certificate.pp report)))
  in
  if faulty && Faults.solver_timeout ~key then
    Error (Printf.sprintf "%s: injected timeout" (engine_name eng), false)
  else
    match eng with
    | Network_simplex -> (
      match Netsimplex.solve ?deadline (Lazy.force problem) with
      | Ok s ->
        flow_result ~flow:s.Netsimplex.flow ~potentials:s.Netsimplex.potentials
      | Error err ->
        let definitive =
          match err with
          | Netsimplex.Unbalanced | Netsimplex.Infeasible
          | Netsimplex.Unbounded ->
            true
          | Netsimplex.Pivot_limit _ -> false
        in
        Error (Netsimplex.error_to_string err, definitive))
    | Ssp -> (
      match Ssp.solve ?deadline (Lazy.force problem) with
      | Ok s -> flow_result ~flow:s.Ssp.flow ~potentials:s.Ssp.potentials
      | Error e -> Error (e, false))
    | Closure -> (
      Rar_obs.Trace.span "solver/closure" @@ fun () ->
      (* Selection means r = -1; assumes every feasible normalised
         solution is in {-1, 0}. *)
      let inst =
        {
          Closure.n = t.n;
          profit = t.coeff;
          m = t.m;
          u = t.u;
          v = t.v;
          bound = t.bound;
          reference;
        }
      in
      match Closure.solve ?deadline inst with
      | Error e -> Error (e, true)
      | Ok o ->
        let cert = o.Closure.certificate in
        Result.map
          (fun () ->
            Array.map (fun s -> if s then -1 else 0) o.Closure.selected)
          (certify (Result.is_ok cert)
             (lazy (match cert with Ok () -> "ok" | Error e -> e))))

(* The alternate engine a failed primary hands over to. *)
let secondary = function
  | Network_simplex -> Ssp
  | Ssp | Closure -> Network_simplex

let solve_with ?deadline ?on_fallback t ~reference primary =
  if not (balanced t) then
    Error "Difflp.solve: objective coefficients do not sum to zero"
  else begin
    (* Built at most once, and only if a flow engine runs. *)
    let problem = lazy (to_problem t) in
    let run ~faulty eng =
      attempt ?deadline ~faulty t ~reference ~problem eng
    in
    match run ~faulty:true primary with
    | Ok r -> Ok r
    | Error (reason, true) ->
      Error (Printf.sprintf "%s: %s" (engine_name primary) reason)
    | Error (reason, false) -> (
      let retried = secondary primary in
      match run ~faulty:false retried with
      | Ok r ->
        Rar_obs.Metrics.incr m_fallbacks;
        (match on_fallback with
        | Some f -> f { failed = primary; retried; reason }
        | None -> ());
        Ok r
      | Error (e2, _) ->
        Error
          (Printf.sprintf "%s: %s; %s fallback: %s" (engine_name primary)
             reason (engine_name retried) e2))
  end

(* Session-scoped solve cache for ECO delta solves, keyed by one
   compact byte string of the whole instance: zigzag varints for n, the
   reference, the engine, m and every (u, v, bound) in emission order,
   then the raw IEEE bits of every objective coefficient. The counts
   come first, so the encoding is injective; the table hashes and
   compares the complete string, so a hit is an identical instance,
   never just a matching hash. All engines here are deterministic, so
   an identical instance would re-derive the identical solution;
   returning the stored one is byte-safe. *)
module Tbl = Hashtbl.Make (String)

type cache = { tbl : int array Tbl.t; lock : Mutex.t }

let create_cache () = { tbl = Tbl.create 16; lock = Mutex.create () }

let m_cache_hits = Rar_obs.Metrics.counter "difflp_cache_hits"

(* LEB128 of the zigzag of [x]: small magnitudes of either sign take
   one byte. *)
let zigzag x = (x lsl 1) lxor (x asr (Sys.int_size - 1))

let varint_len x =
  let z = ref (zigzag x) and k = ref 1 in
  while !z lsr 7 <> 0 do
    z := !z lsr 7;
    incr k
  done;
  !k

let put_varint b pos x =
  let z = ref (zigzag x) and p = ref pos in
  while !z lsr 7 <> 0 do
    Bytes.set b !p (Char.unsafe_chr (!z land 0x7f lor 0x80));
    z := !z lsr 7;
    incr p
  done;
  Bytes.set b !p (Char.unsafe_chr !z);
  !p + 1

let engine_code = function Network_simplex -> 0 | Ssp -> 1 | Closure -> 2

(* Sized by a first pass, so the key is allocated once and exactly. *)
let signature t ~reference ~engine =
  let head = [| t.n; reference; engine_code engine; t.m |] in
  let len = ref (8 * t.n) in
  for k = 0 to 3 do
    len := !len + varint_len head.(k)
  done;
  for i = 0 to t.m - 1 do
    len :=
      !len + varint_len t.u.(i) + varint_len t.v.(i) + varint_len t.bound.(i)
  done;
  let b = Bytes.create !len in
  let pos = ref 0 in
  for k = 0 to 3 do
    pos := put_varint b !pos head.(k)
  done;
  for i = 0 to t.m - 1 do
    pos := put_varint b !pos t.u.(i);
    pos := put_varint b !pos t.v.(i);
    pos := put_varint b !pos t.bound.(i)
  done;
  for x = 0 to t.n - 1 do
    Bytes.set_int64_le b !pos (Int64.bits_of_float t.coeff.(x));
    pos := !pos + 8
  done;
  Bytes.unsafe_to_string b

let cache_find cache key =
  Mutex.lock cache.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock cache.lock) @@ fun () ->
  Option.map Array.copy (Tbl.find_opt cache.tbl key)

let cache_store cache key r =
  Mutex.lock cache.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock cache.lock) @@ fun () ->
  Tbl.replace cache.tbl key (Array.copy r)

let default_engine t ~reference =
  if binary_window t ~reference then Closure else Network_simplex

let solve ?deadline ?on_fallback ?engine ?cache t ~reference =
  Rar_obs.Trace.span "difflp/solve" @@ fun () ->
  check_var t reference "solve";
  let engine =
    match engine with Some e -> e | None -> default_engine t ~reference
  in
  let key =
    match cache with
    | None -> None
    | Some _ -> Some (signature t ~reference ~engine)
  in
  let cached =
    match (cache, key) with
    | Some c, Some k -> cache_find c k
    | _ -> None
  in
  match cached with
  | Some r ->
    Rar_obs.Metrics.incr m_cache_hits;
    Ok r
  | None -> (
    match solve_with ?deadline ?on_fallback t ~reference engine with
    | Error _ as e -> e
    | Ok r -> (
      match check t r with
      | Ok () ->
        (match (cache, key) with
        | Some c, Some k -> cache_store c k r
        | _ -> ());
        Ok r
      | Error msg ->
        Error
          (Printf.sprintf "Difflp.solve (%s): internal error, %s"
             (engine_name engine) msg)))

let solve_brute t ~lo ~hi ~reference =
  check_var t reference "solve_brute";
  if hi < lo then invalid_arg "Difflp.solve_brute: hi < lo";
  let width = hi - lo + 1 in
  let r = Array.make t.n lo in
  r.(reference) <- 0;
  let best = ref None in
  let consider () =
    match check t r with
    | Error _ -> ()
    | Ok () ->
      let obj = objective_value t r in
      (match !best with
      | Some (_, b) when b <= obj -> ()
      | _ -> best := Some (Array.copy r, obj))
  in
  let rec go v =
    if v = t.n then consider ()
    else if v = reference then go (v + 1)
    else
      for x = lo to lo + width - 1 do
        r.(v) <- x;
        go (v + 1)
      done
  in
  go 0;
  !best

let to_lp_format t ~name =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "Minimize\n obj:";
  let first = ref true in
  Array.iteri
    (fun v a ->
      if a <> 0. then begin
        Buffer.add_string buf
          (Printf.sprintf " %s%g %s"
             (if a >= 0. then (if !first then "" else "+ ") else "- ")
             (Float.abs a) (name v));
        first := false
      end)
    t.coeff;
  if !first then Buffer.add_string buf " 0 r0";
  Buffer.add_string buf "\nSubject To\n";
  for i = 0 to t.m - 1 do
    Buffer.add_string buf
      (Printf.sprintf " c%d: %s - %s <= %d\n" (i + 1) (name t.u.(i))
         (name t.v.(i)) t.bound.(i))
  done;
  Buffer.add_string buf "Bounds\n";
  for v = 0 to t.n - 1 do
    Buffer.add_string buf (Printf.sprintf " %s free\n" (name v))
  done;
  Buffer.add_string buf "End\n";
  Buffer.contents buf
