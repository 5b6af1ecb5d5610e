type t = {
  start : float;
  budget_s : float;
  mutable countdown : int;
      (* checks remaining until the next clock sample; a benign data
         race under parallel use only delays a sample by a stride *)
  mutable on_sample : (phase:string -> unit) option;
      (* per-sample hook (resource guards); may raise *)
}

exception Expired of { elapsed : float; phase : string }

let stride = 256

(* Process-wide cooperative cancellation, for signal handlers: a
   handler may only set a flag, so SIGINT/SIGTERM park a reason here
   and every live token notices at its next strided sample. [armed]
   records that a cancellation source (the CLI's signal handlers)
   exists at all — the engine layer uses it to thread an unbounded
   token through runs that were given no explicit deadline, so the
   cancel has check sites to fire from. *)
let global_cancel : string option Atomic.t = Atomic.make None
let armed = Atomic.make false

let arm_cancel () = Atomic.set armed true
let cancel_armed () = Atomic.get armed
let request_cancel ~reason = Atomic.set global_cancel (Some reason)
let cancel_pending () = Atomic.get global_cancel
let clear_cancel () = Atomic.set global_cancel None

let make ~budget_s =
  if Float.is_nan budget_s || not (budget_s >= 0.) then
    invalid_arg "Rar_util.Deadline.make: budget must be non-negative";
  {
    start = Clock.monotonic_s ();
    budget_s;
    countdown = 0;
    on_sample = None;
  }

let set_on_sample t f = t.on_sample <- Some f

let elapsed_s t = Clock.monotonic_s () -. t.start

let force_check t ~phase =
  (match Atomic.get global_cancel with
  | Some reason ->
    raise (Expired { elapsed = elapsed_s t; phase = "cancel:" ^ reason })
  | None -> ());
  (match t.on_sample with Some f -> f ~phase | None -> ());
  let elapsed = elapsed_s t in
  if elapsed >= t.budget_s then raise (Expired { elapsed; phase })

let check t ~phase =
  t.countdown <- t.countdown - 1;
  if t.countdown <= 0 then begin
    t.countdown <- stride;
    force_check t ~phase
  end
