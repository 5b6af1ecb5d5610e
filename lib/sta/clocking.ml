type t =
  | Two_phase of { phi1 : float; gamma1 : float; phi2 : float; gamma2 : float }
  | Three_phase of { phi : float; gamma : float }

let v ~phi1 ~gamma1 ~phi2 ~gamma2 =
  if phi1 <= 0. then invalid_arg "Clocking.v: phi1 must be positive";
  if gamma1 < 0. || phi2 < 0. || gamma2 < 0. then
    invalid_arg "Clocking.v: negative phase component";
  Two_phase { phi1; gamma1; phi2; gamma2 }

let three ~phi ~gamma =
  if phi <= 0. then invalid_arg "Clocking.three: phi must be positive";
  if gamma < 0. then invalid_arg "Clocking.three: negative gamma";
  Three_phase { phi; gamma }

let of_p p =
  if p <= 0. then invalid_arg "Clocking.of_p: p must be positive";
  v ~phi1:(0.3 *. p) ~gamma1:0. ~phi2:(0.35 *. p) ~gamma2:(0.05 *. p)

let of_p3 p =
  if p <= 0. then invalid_arg "Clocking.of_p3: p must be positive";
  (* Three equal slots of 0.25p (phi = 0.2p, gamma = 0.05p): period =
     0.75p and, with the window spanning a full slot, max_delay = p —
     the same normalisation [of_p] uses for the two-phase split. *)
  three ~phi:(0.2 *. p) ~gamma:(0.05 *. p)

let phases = function Two_phase _ -> 2 | Three_phase _ -> 3

let period = function
  | Two_phase c -> c.phi1 +. c.gamma1 +. c.phi2 +. c.gamma2
  | Three_phase c -> 3. *. (c.phi +. c.gamma)

let resiliency_window = function
  | Two_phase c -> c.phi1
  | Three_phase c ->
    (* The window of a 3-phase master extends through the non-overlap
       gap after its transparent phase: the phase-3 latches downstream
       are still opaque during the gap, so a late arrival detected
       anywhere in [phi + gamma] can stall the next phase without the
       error propagating. Distinct from the two-phase rule, where the
       window is exactly the transparent width [phi1]. *)
    c.phi +. c.gamma

let max_delay t = period t +. resiliency_window t
let tolerance = 1e-9
let past_period t arrival = arrival > period t +. tolerance
let past_max_delay t arrival = arrival > max_delay t +. tolerance

let slave_open = function
  | Two_phase c -> c.phi1 +. c.gamma1
  | Three_phase c -> c.phi +. c.gamma

let slave_close = function
  | Two_phase c -> c.phi1 +. c.gamma1 +. c.phi2
  | Three_phase c -> (2. *. c.phi) +. c.gamma

let backward_budget t =
  (* Generalises the paper's two-phase [phi2 + gamma2 + phi1]: time from
     the slave opening to the end of the terminating master's window,
     [period - slave_open + resiliency_window]. *)
  period t -. slave_open t +. resiliency_window t

let pp ppf = function
  | Two_phase c ->
    Format.fprintf ppf
      "<phi1=%.3f gamma1=%.3f phi2=%.3f gamma2=%.3f | Pi=%.3f P=%.3f>" c.phi1
      c.gamma1 c.phi2 c.gamma2
      (period (Two_phase c))
      (max_delay (Two_phase c))
  | Three_phase c ->
    Format.fprintf ppf "<3-phase phi=%.3f gamma=%.3f | Pi=%.3f P=%.3f>" c.phi
      c.gamma
      (period (Three_phase c))
      (max_delay (Three_phase c))

(* A proportional ASCII timing diagram over one period plus the
   resiliency window (Fig. 1). *)
let pp_diagram ppf t =
  let total = max_delay t in
  let width = 64 in
  let col x = int_of_float (Float.round (x /. total *. float_of_int width)) in
  let line segments =
    (* segments: (start, stop, char) over a base of '_' *)
    let b = Bytes.make (width + 1) '_' in
    List.iter
      (fun (a, z, ch) ->
        for i = col a to min width (col z - 1) do
          Bytes.set b i ch
        done)
      segments;
    Bytes.to_string b
  in
  let p1a = period t in
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf "t:      0%*s@ " width (Printf.sprintf "%.2f" total);
  (match t with
  | Two_phase c ->
    Format.fprintf ppf "clk1:   %s@ "
      (line [ (0., c.phi1, '#'); (p1a, p1a +. c.phi1, '#') ]);
    Format.fprintf ppf "clk2:   %s@ " (line [ (slave_open t, slave_close t, '#') ])
  | Three_phase c ->
    Format.fprintf ppf "clk1:   %s@ "
      (line [ (0., c.phi, '#'); (p1a, p1a +. c.phi, '#') ]);
    Format.fprintf ppf "clk2:   %s@ "
      (line [ (slave_open t, slave_close t, '#') ]);
    let open3 = 2. *. (c.phi +. c.gamma) in
    Format.fprintf ppf "clk3:   %s@ " (line [ (open3, open3 +. c.phi, '#') ]));
  Format.fprintf ppf "window: %s  (resiliency: data arriving here is an error)@ "
    (line [ (period t, max_delay t, 'R') ]);
  Format.fprintf ppf "Pi=%.3f  P=Pi+window=%.3f  slave transparent [%.3f, %.3f]@]"
    (period t) (max_delay t) (slave_open t) (slave_close t)
