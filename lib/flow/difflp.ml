module Vec = Rar_util.Vec
module Faults = Rar_resilience.Faults

type cons = { u : int; v : int; bound : int }

type t = { n : int; cons : cons Vec.t; coeff : float array }

let create ~n =
  if n <= 0 then invalid_arg "Difflp.create: n <= 0";
  { n; cons = Vec.create (); coeff = Array.make n 0. }

let var_count t = t.n

let check_var t x name =
  if x < 0 || x >= t.n then
    invalid_arg (Printf.sprintf "Difflp.%s: variable %d out of range" name x)

let add_constraint t ~u ~v ~bound =
  check_var t u "add_constraint";
  check_var t v "add_constraint";
  if u = v then begin
    if bound < 0 then
      invalid_arg "Difflp.add_constraint: r(u) - r(u) <= negative is infeasible"
    (* trivially true otherwise; drop *)
  end
  else Vec.add_last t.cons { u; v; bound }

let add_objective t v a =
  check_var t v "add_objective";
  t.coeff.(v) <- t.coeff.(v) +. a

let iter_constraints t f = Vec.iter (fun c -> f ~u:c.u ~v:c.v ~bound:c.bound) t.cons

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
    let bad = ref None in
    Vec.iter
      (fun c ->
        if !bad = None && r.(c.u) - r.(c.v) > c.bound then
          bad :=
            Some
              (Printf.sprintf "violated: r(%d) - r(%d) = %d > %d" c.u c.v
                 (r.(c.u) - r.(c.v)) c.bound))
      t.cons;
    match !bad with None -> Ok () | Some msg -> Error msg
  end

let balanced t =
  Float.abs (Array.fold_left ( +. ) 0. t.coeff) <= 1e-6

let to_problem t =
  let p = Problem.create ~n:t.n in
  Vec.iter
    (fun c -> ignore (Problem.add_arc p ~src:c.u ~dst:c.v ~cost:c.bound))
    t.cons;
  Array.iteri (fun v a -> if a <> 0. then Problem.add_demand p v a) t.coeff;
  p

let normalise reference r =
  let base = r.(reference) in
  Array.map (fun x -> x - base) r

type fallback_event = { failed : engine; retried : engine; reason : string }

let m_fallbacks = Rar_obs.Metrics.counter "solver_fallbacks"

(* Stable per-LP fault key: depends only on the LP shape, never on call
   order, so fault firing is reproducible under any domain scheduling. *)
let fault_key t = (t.n * 1_000_003) + Vec.length t.cons

(* The binary-window scan behind the default engine choice: every
   non-reference variable [x] carries both [x - ref <= 0] and
   [ref - x <= 1] (or tighter), and no bound is below -1. Then every
   feasible normalised solution lies in {-1, 0}, which is exactly the
   precondition of the closure reduction. One linear pass. *)
let binary_window t ~reference =
  let upper = Bytes.make t.n '\000' and lower = Bytes.make t.n '\000' in
  let ok = ref true in
  Vec.iter
    (fun c ->
      if c.bound < -1 then ok := false
      else begin
        if c.v = reference && c.bound <= 0 then Bytes.set upper c.u '\001';
        if c.u = reference && c.bound <= 1 then Bytes.set lower c.v '\001'
      end)
    t.cons;
  let v = ref 0 in
  while !ok && !v < t.n do
    if !v <> reference
       && (Bytes.get upper !v = '\000' || Bytes.get lower !v = '\000')
    then ok := false;
    incr v
  done;
  !ok

let closure_instance t ~reference =
  (* Selection means r = -1; assumes every feasible normalised
     solution is in {-1, 0}. *)
  let implications = ref [] in
  let must_select = ref [] in
  let must_reject = ref [ reference ] in
  let infeasible = ref None in
  Vec.iter
    (fun c ->
      if c.bound >= 1 then () (* slack within a binary window *)
      else if c.bound = 0 then implications := (c.v, c.u) :: !implications
      else if c.bound = -1 then begin
        must_select := c.u :: !must_select;
        must_reject := c.v :: !must_reject
      end
      else
        infeasible :=
          Some
            (Printf.sprintf
               "constraint r(%d) - r(%d) <= %d is outside the binary window"
               c.u c.v c.bound))
    t.cons;
  match !infeasible with
  | Some msg -> Error msg
  | None ->
    Ok
      {
        Closure.n = t.n;
        profit = Array.copy t.coeff;
        implications = !implications;
        must_select = !must_select;
        must_reject = !must_reject;
      }

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
      match closure_instance t ~reference with
      | Error e -> Error (e, true)
      | Ok inst -> (
        match Closure.solve ?deadline inst with
        | Error e -> Error (e, true)
        | Ok o ->
          let cert = o.Closure.certificate in
          Result.map
            (fun () ->
              Array.map (fun s -> if s then -1 else 0) o.Closure.selected)
            (certify (Result.is_ok cert)
               (lazy (match cert with Ok () -> "ok" | Error e -> e)))))

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

(* Session-scoped solve cache for ECO delta solves. Keyed by the full
   structural signature of the instance (variables, every constraint in
   emission order, objective, reference, engine) — the digest only
   buckets the table; a hit compares the complete marshalled signature,
   so a digest collision can never smuggle in a wrong solution. All
   engines here are deterministic, so an identical instance would
   re-derive the identical solution; returning the stored one is
   byte-safe. *)
type cache = {
  tbl : (string, string * int array) Hashtbl.t;
  lock : Mutex.t;
}

let create_cache () = { tbl = Hashtbl.create 16; lock = Mutex.create () }

let m_cache_hits = Rar_obs.Metrics.counter "difflp_cache_hits"

let signature t ~reference ~engine =
  let cons = ref [] in
  Vec.iter (fun c -> cons := c :: !cons) t.cons;
  Marshal.to_string (t.n, !cons, t.coeff, reference, engine) []

let cache_find cache key =
  Mutex.lock cache.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock cache.lock) @@ fun () ->
  match Hashtbl.find_opt cache.tbl (Digest.string key) with
  | Some (stored, r) when String.equal stored key -> Some (Array.copy r)
  | Some _ | None -> None

let cache_store cache key r =
  Mutex.lock cache.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock cache.lock) @@ fun () ->
  Hashtbl.replace cache.tbl (Digest.string key) (key, Array.copy r)

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
  let i = ref 0 in
  Vec.iter
    (fun c ->
      incr i;
      Buffer.add_string buf
        (Printf.sprintf " c%d: %s - %s <= %d\n" !i (name c.u) (name c.v)
           c.bound))
    t.cons;
  Buffer.add_string buf "Bounds\n";
  for v = 0 to t.n - 1 do
    Buffer.add_string buf (Printf.sprintf " %s free\n" (name v))
  done;
  Buffer.add_string buf "End\n";
  Buffer.contents buf
