(* Structured tracing: nested spans on the monotonized wall clock,
   buffered per domain and merged deterministically at export.

   Disarmed (the default) a span is one atomic load; nothing is
   allocated and no clock is sampled, so the instrumentation can stay
   threaded through solver kernels permanently. Armed, each span
   records a Begin/End event pair into the recording domain's own
   buffer — no locking on the hot path — and the export step merges
   every buffer into one (ts, dom, seq)-ordered stream, so the same
   run produces the same trace under any pool size. *)

module Vec = Rar_util.Vec
module Clock = Rar_util.Clock
module Json = Rar_util.Json

type phase = Begin | End

type event = {
  name : string;
  phase : phase;
  ts_s : float; (* monotonized wall clock, absolute *)
  dom : int;    (* recording domain *)
  seq : int;    (* per-domain sequence number, breaks equal-ts ties *)
}

type buf = { dom : int; mutable seq : int; events : event Vec.t }

let armed = Atomic.make false
let arm () = Atomic.set armed true
let disarm () = Atomic.set armed false

(* Every domain that ever records gets a buffer, registered globally
   so export/clear can reach it after the domain is gone (pool workers
   die on resize; their events must survive them). *)
let bufs : buf list ref = ref []
let bufs_lock = Mutex.create ()

let key : buf Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let b =
        { dom = (Domain.self () :> int); seq = 0; events = Vec.create () }
      in
      Mutex.lock bufs_lock;
      bufs := b :: !bufs;
      Mutex.unlock bufs_lock;
      b)

let record name phase =
  let b = Domain.DLS.get key in
  b.seq <- b.seq + 1;
  Vec.add_last b.events
    { name; phase; ts_s = Clock.monotonic_s (); dom = b.dom; seq = b.seq }

let nop () = ()

(* [span_fn] splits a span for callers that cannot wrap a closure
   (e.g. the pool batch hook): the Begin is recorded now, the returned
   thunk records the End. The decision to record is taken once, so a
   span stays balanced even if the armed flag flips in between. *)
let span_fn name =
  if not (Atomic.get armed) then nop
  else begin
    record name Begin;
    fun () -> record name End
  end

let span name f =
  if not (Atomic.get armed) then f ()
  else begin
    record name Begin;
    Fun.protect ~finally:(fun () -> record name End) f
  end

let clear () =
  Mutex.lock bufs_lock;
  List.iter
    (fun b ->
      Vec.clear b.events;
      b.seq <- 0)
    !bufs;
  Mutex.unlock bufs_lock

let events () =
  Mutex.lock bufs_lock;
  let all = List.concat_map (fun b -> Vec.to_list b.events) !bufs in
  Mutex.unlock bufs_lock;
  List.sort
    (fun a b ->
      let c = compare a.ts_s b.ts_s in
      if c <> 0 then c
      else
        let c = compare a.dom b.dom in
        if c <> 0 then c else compare a.seq b.seq)
    all

let check_balanced () =
  let stacks : (int, string list) Hashtbl.t = Hashtbl.create 8 in
  let bad = ref None in
  List.iter
    (fun (e : event) ->
      if !bad = None then begin
        let stack =
          Option.value ~default:[] (Hashtbl.find_opt stacks e.dom)
        in
        match e.phase with
        | Begin -> Hashtbl.replace stacks e.dom (e.name :: stack)
        | End -> (
          match stack with
          | top :: rest when top = e.name ->
            Hashtbl.replace stacks e.dom rest
          | top :: _ ->
            bad :=
              Some
                (Printf.sprintf "domain %d: exit %S while inside %S" e.dom
                   e.name top)
          | [] ->
            bad :=
              Some
                (Printf.sprintf "domain %d: exit %S with no open span" e.dom
                   e.name))
      end)
    (events ());
  match !bad with
  | Some msg -> Error msg
  | None ->
    Hashtbl.fold
      (fun dom stack acc ->
        match (acc, stack) with
        | Error _, _ | _, [] -> acc
        | Ok (), name :: _ ->
          Error (Printf.sprintf "domain %d: span %S never exited" dom name))
      stacks (Ok ())

(* Chrome trace-event JSON ("rar-trace/1"): timestamps are exported in
   microseconds relative to the first event, both because the viewer
   wants small numbers and because absolute epoch microseconds do not
   survive the renderer's 12-significant-digit floats. *)
let phase_string = function Begin -> "B" | End -> "E"

let to_json () =
  let evs = events () in
  let t0 = match evs with [] -> 0. | e :: _ -> e.ts_s in
  Json.Obj
    [
      ("schema", Json.String "rar-trace/1");
      ( "traceEvents",
        Json.List
          (List.map
             (fun e ->
               Json.Obj
                 [
                   ("name", Json.String e.name);
                   ("ph", Json.String (phase_string e.phase));
                   ("ts", Json.Float ((e.ts_s -. t0) *. 1e6));
                   ("pid", Json.Int 1);
                   ("tid", Json.Int e.dom);
                 ])
             evs) );
    ]

let export_file path =
  let oc = open_out path in
  output_string oc (Json.to_string (to_json ()));
  output_char oc '\n';
  close_out oc
