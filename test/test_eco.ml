(* ECO layer: resolve-vs-cold equivalence.

   The contract under test is byte-identity: an [Rar_engine.resolve]
   over a session must produce exactly the result a cold
   [Rar_engine.run] computes on the cumulatively edited netlist — same
   outcome, same extras (including the LP solution array), same
   serialised JSON apart from [wall_s] and [solver_events] (LP cache
   hits skip the solver, so they can legitimately drop fallback
   events). The sweep runs the same seeds under pool sizes 1, 2 and 4
   and additionally requires the three transcripts to agree, pinning
   the determinism-across-domains contract the incremental layers
   inherit from the cold path. *)

module Netlist = Rar_netlist.Netlist
module Transform = Rar_netlist.Transform
module Edit = Transform.Edit
module Liberty = Rar_liberty.Liberty
module Spec = Rar_circuits.Spec
module Generator = Rar_circuits.Generator
module Suite = Rar_circuits.Suite
module Stage = Rar_retime.Stage
module Engine = Rar_engine
module Pool = Rar_util.Pool
module Json = Rar_util.Json

let small_spec seed =
  {
    Spec.name = "eco";
    n_flops = 10 + (seed mod 13);
    n_pi = 3 + (seed mod 4);
    n_po = 3 + (seed mod 3);
    n_gates = 90 + (5 * (seed mod 19));
    depth = 6 + (seed mod 5);
    nce_target = 3 + (seed mod 4);
    seed = Printf.sprintf "eco%d" seed;
    src_bias_pct = 55;
  }

let cached_prepared =
  let tbl = Hashtbl.create 8 in
  fun seed ->
    match Hashtbl.find_opt tbl seed with
    | Some p -> p
    | None ->
      let p = Suite.prepare (Generator.generate (small_spec seed)) in
      Hashtbl.replace tbl seed p;
      p

(* --- random legal edit batches ------------------------------------- *)

(* Drivers for rewires are restricted to nodes strictly earlier in a
   topological order of the current netlist, so no generated edit can
   close a combinational cycle (the new arc is consistent with an
   existing topo order). *)
let gen_batch rng net lib =
  let n = Netlist.node_count net in
  let gates =
    Array.of_list
      (List.filter
         (fun v ->
           match Netlist.kind net v with Netlist.Gate _ -> true | _ -> false)
         (List.init n Fun.id))
  in
  let topo = Netlist.topo_comb net in
  let pos = Array.make n (-1) in
  Array.iteri (fun i v -> pos.(v) <- i) topo;
  let drives = Array.of_list (Liberty.drives lib) in
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let name v = Netlist.node_name net v in
  let gen_edit () =
    match Random.State.int rng 5 with
    | 0 ->
      Edit.Resize { node = name (pick gates); drive = pick drives }
    | 1 ->
      Edit.Annotate
        {
          node = name (pick gates);
          extra = float_of_int (Random.State.int rng 5) /. 100.;
        }
    | 2 -> Edit.Set_c (0.2 +. (float_of_int (Random.State.int rng 6) /. 10.))
    | _ -> (
      (* rewire one pin of a gate to any legal earlier driver *)
      let v = pick gates in
      let pin = Random.State.int rng (Array.length (Netlist.fanins net v)) in
      let candidates =
        List.filter
          (fun u ->
            pos.(u) >= 0 && pos.(u) < pos.(v)
            &&
            match Netlist.kind net u with
            | Netlist.Input | Netlist.Gate _ -> true
            | _ -> false)
          (List.init n Fun.id)
      in
      match candidates with
      | [] -> Edit.Resize { node = name v; drive = pick drives }
      | _ ->
        let u = List.nth candidates (Random.State.int rng (List.length candidates)) in
        Edit.Rewire { node = name v; pin; driver = name u })
  in
  List.init (1 + Random.State.int rng 3) (fun _ -> gen_edit ())

(* --- resolve vs cold ----------------------------------------------- *)

(* Serialised result with the fields the contract excludes removed. *)
let strip_json cfg r =
  match Engine.result_json cfg r with
  | Json.Obj fields ->
    Json.to_string
      (Json.Obj
         (List.filter
            (fun (k, _) -> k <> "wall_s" && k <> "solver_events")
            fields))
  | j -> Json.to_string j

(* Everything a stage analysis exposes, floats as bits, so two
   analyses compare bitwise. *)
let stage_fingerprint st =
  let bits = Int64.bits_of_float in
  ( Array.init (Netlist.node_count (Stage.comb st)) (Stage.region st),
    Stage.illegal_edges st,
    Array.map
      (fun s ->
        let cls = Stage.classify st s in
        ( cls,
          bits (Stage.max_path st s),
          bits (Stage.initial_arrival st s),
          match cls with
          | Stage.Always_ed -> []
          | Stage.Never_ed | Stage.Target _ -> Stage.window_edges st s ))
      (Stage.sinks st) )

let stage_of cfg p =
  match Engine.stage_of ~model:cfg.Engine.model p with
  | Ok s -> s
  | Error e ->
    Alcotest.failf "stage analysis failed: %s" (Rar_retime.Error.to_string e)

(* Run one edit scenario under the current pool size; returns the
   per-batch transcript (either the stripped JSON of the matching
   results, or a tag recording that both sides failed identically). *)
let run_scenario seed =
  let p = cached_prepared (seed mod 7) in
  let spec = if seed mod 2 = 0 then Engine.Grar else Engine.Base in
  let cfg = Engine.config ~c:0.5 spec in
  let stage0 = stage_of cfg p in
  let session = Engine.open_session cfg stage0 in
  let rng = Random.State.make [| 0xec0; seed |] in
  let cold_net = ref (Stage.comb stage0) in
  let cold_annot = ref None in
  let cold_cfg = ref cfg in
  let transcript = ref [] in
  for batch_no = 0 to 2 do
    let batch = gen_batch rng !cold_net p.Suite.lib in
    let inc = Engine.resolve session batch in
    (* Cold reference: the same edits applied from scratch, full stage
       re-analysis ([Engine.stage_of ~edits]), fresh engine run. *)
    let cold =
      match
        (try Ok (Edit.apply ?annot:!cold_annot !cold_net batch)
         with Invalid_argument d ->
           Error (Rar_retime.Error.Invalid_input d))
      with
      | Error _ as e -> (e, None)
      | Ok applied -> (
        let cfg' =
          match applied.Edit.c with
          | None -> !cold_cfg
          | Some c -> { !cold_cfg with Engine.c }
        in
        match Engine.stage_of ~model:cfg'.Engine.model ~edits:applied p with
        | Error e -> (Error e, None)
        | Ok stage -> (Engine.run cfg' stage, Some (applied, cfg')))
    in
    match (inc, cold) with
    | Ok ri, (Ok rc, Some (applied, cfg')) ->
      if not (ri.Engine.outcome = rc.Engine.outcome) then
        Alcotest.failf "batch %d: outcomes differ" batch_no;
      if not (ri.Engine.extras = rc.Engine.extras) then
        Alcotest.failf "batch %d: extras differ" batch_no;
      (* the patched analysis (post-sizing, as the engine verified it)
         is bitwise the from-scratch one *)
      if stage_fingerprint ri.Engine.stage <> stage_fingerprint rc.Engine.stage
      then Alcotest.failf "batch %d: stage analyses differ" batch_no;
      let si = strip_json cfg' ri and sc = strip_json cfg' rc in
      if si <> sc then
        Alcotest.failf "batch %d: JSON differs\nincr: %s\ncold: %s" batch_no
          si sc;
      transcript := si :: !transcript;
      cold_net := applied.Edit.net;
      cold_annot := Some applied.Edit.annot;
      cold_cfg := cfg'
    | Error ei, (Error ec, _) ->
      if ei <> ec then
        Alcotest.failf "batch %d: errors differ (%s vs %s)" batch_no
          (Rar_retime.Error.to_string ei)
          (Rar_retime.Error.to_string ec);
      transcript := ("error:" ^ Rar_retime.Error.to_string ei) :: !transcript
    | Ok _, (Error e, _) ->
      Alcotest.failf "batch %d: resolve succeeded but cold failed: %s"
        batch_no
        (Rar_retime.Error.to_string e)
    | Error e, (Ok _, _) ->
      Alcotest.failf "batch %d: cold succeeded but resolve failed: %s"
        batch_no
        (Rar_retime.Error.to_string e)
    | Ok _, (Ok _, None) -> assert false (* Ok cold implies Some applied *)
  done;
  List.rev !transcript

let prop_resolve_matches_cold =
  QCheck.Test.make ~name:"resolve = cold run, across pool sizes 1/2/4"
    ~count:12 QCheck.small_int (fun seed ->
      let saved = Pool.jobs () in
      Fun.protect ~finally:(fun () -> Pool.set_jobs saved) @@ fun () ->
      let transcripts =
        List.map
          (fun jobs ->
            Pool.set_jobs jobs;
            run_scenario seed)
          [ 1; 2; 4 ]
      in
      match transcripts with
      | [ a; b; c ] -> a = b && b = c
      | _ -> false)

(* --- edit-script parsing -------------------------------------------- *)

let test_parse_script () =
  let script =
    "# eco script\n\
     resize g1 2\n\
     annotate g2 0.05\n\
     commit\n\
     rewire g3 1 g0\n\
     c 0.7\n"
  in
  match Edit.parse_script script with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok batches ->
    Alcotest.(check int) "two batches" 2 (List.length batches);
    Alcotest.(check int) "first batch size" 2 (List.length (List.hd batches));
    (match Edit.parse_script "resize g1\n" with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "short resize line should be rejected")

let test_set_c_rejects_non_finite () =
  let comb = (cached_prepared 0).Suite.cc.Transform.comb in
  List.iter
    (fun c ->
      match Edit.apply comb [ Edit.Set_c c ] with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "c %g should be rejected" c)
    [ Float.nan; Float.infinity; Float.neg_infinity; -1. ];
  Alcotest.(check (option (float 0.))) "finite c accepted" (Some 0.7)
    (Edit.apply comb [ Edit.Set_c 0.7 ]).Edit.c

let test_session_rejects_movable () =
  let cfg = Engine.config ~c:0.5 Engine.Movable in
  match Engine.open_session cfg (stage_of cfg (cached_prepared 0)) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "open_session should reject the movable engine"

let test_resolve_bad_edit_keeps_session () =
  let p = cached_prepared 1 in
  let cfg = Engine.config ~c:0.5 Engine.Grar in
  let session = Engine.open_session cfg (stage_of cfg p) in
  (match
     Engine.resolve session [ Edit.Resize { node = "no-such"; drive = 2 } ]
   with
  | Error (Rar_retime.Error.Invalid_input _) -> ()
  | Error e ->
    Alcotest.failf "unexpected error: %s" (Rar_retime.Error.to_string e)
  | Ok _ -> Alcotest.fail "unknown node should be rejected");
  (* a drive the library lacks must surface as the same typed error,
     not as an exception from deep inside the incremental STA *)
  let comb = p.Suite.cc.Transform.comb in
  let gate =
    let rec find i =
      if i >= Netlist.node_count comb then Alcotest.fail "no gate node"
      else
        match Netlist.kind comb i with
        | Netlist.Gate _ -> Netlist.node_name comb i
        | Netlist.Input | Netlist.Output | Netlist.Seq _ -> find (i + 1)
    in
    find 0
  in
  (match Engine.resolve session [ Edit.Resize { node = gate; drive = 3 } ]
   with
  | Error (Rar_retime.Error.Invalid_input _) -> ()
  | Error e ->
    Alcotest.failf "unexpected error: %s" (Rar_retime.Error.to_string e)
  | Ok _ -> Alcotest.fail "unavailable drive should be rejected");
  (* the failed batch must not have corrupted the session *)
  match Engine.resolve session [] with
  | Ok _ -> ()
  | Error e ->
    Alcotest.failf "empty resolve after failure: %s"
      (Rar_retime.Error.to_string e)

let test_eco_metrics_registered () =
  Rar_obs.Metrics.arm ();
  Fun.protect ~finally:Rar_obs.Metrics.disarm @@ fun () ->
  let counters, _ = Rar_obs.Metrics.snapshot () in
  let has name = List.mem_assoc name counters in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " registered") true (has name))
    [ "sta_incremental_pins"; "difflp_cache_hits" ]

(* --- concurrent sessions ------------------------------------------- *)

(* Two sessions over the *same* shared stage, resolving interleaved
   from different pool tasks, must produce transcripts bitwise equal
   to the same sessions resolved serially. This exercises the shared
   read-only [Stage.t] (forced STA memos), the [wd_lock]-guarded W/D
   memo in [Classic.graph] and the thread-safe [Difflp] caches under
   real contention. *)
let test_concurrent_sessions_match_serial () =
  let p = cached_prepared 4 in
  let cfg = Engine.config ~c:0.5 Engine.Grar in
  let stage0 = stage_of cfg p in
  (* Pre-generate each session's batches against its own evolving
     netlist, so serial and concurrent runs replay identical edits. *)
  let mk_batches seed =
    let rng = Random.State.make [| 0xcc; seed |] in
    let net = ref (Stage.comb stage0) in
    let annot = ref None in
    List.init 3 (fun _ ->
        let b = gen_batch rng !net p.Suite.lib in
        let applied = Edit.apply ?annot:!annot !net b in
        net := applied.Edit.net;
        annot := Some applied.Edit.annot;
        b)
  in
  let batches_a = mk_batches 1 and batches_b = mk_batches 2 in
  let transcript batches =
    let s = Engine.open_session cfg stage0 in
    List.map
      (fun b ->
        match Engine.resolve s b with
        | Ok r -> strip_json (Engine.session_config s) r
        | Error e -> "error:" ^ Rar_retime.Error.to_string e)
      batches
  in
  let serial_a = transcript batches_a in
  let serial_b = transcript batches_b in
  let results = Array.make 2 [] in
  let lock = Mutex.create () in
  let cond = Condition.create () in
  let pending = ref 2 in
  let submit i batches =
    Pool.submit (fun () ->
        let t = transcript batches in
        Mutex.lock lock;
        results.(i) <- t;
        decr pending;
        if !pending = 0 then Condition.broadcast cond;
        Mutex.unlock lock)
  in
  submit 0 batches_a;
  submit 1 batches_b;
  Mutex.lock lock;
  while !pending > 0 do
    Condition.wait cond lock
  done;
  Mutex.unlock lock;
  Alcotest.(check (list string))
    "session A matches serial" serial_a results.(0);
  Alcotest.(check (list string))
    "session B matches serial" serial_b results.(1)

let suite =
  [
    Alcotest.test_case "edit-script parsing" `Quick test_parse_script;
    Alcotest.test_case "set c rejects non-finite values" `Quick
      test_set_c_rejects_non_finite;
    Alcotest.test_case "session rejects movable" `Quick
      test_session_rejects_movable;
    Alcotest.test_case "failed resolve leaves session intact" `Quick
      test_resolve_bad_edit_keeps_session;
    Alcotest.test_case "eco metrics registered" `Quick
      test_eco_metrics_registered;
    Alcotest.test_case "concurrent sessions match serial" `Slow
      test_concurrent_sessions_match_serial;
    QCheck_alcotest.to_alcotest prop_resolve_matches_cold;
  ]
