(** Resilient clock models.

    Two-phase (paper §II-A, Fig. 1): [Pi = <phi1, gamma1, phi2,
    gamma2>], where [phi_i] is the transparent window of phase [i] and
    [gamma_i] the gap from the falling edge of phase [i] to the rising
    edge of phase [i+1]. Master latches are clocked by phase 1 and may
    be error-detecting; slave latches are clocked by phase 2 and
    time-borrow. The resiliency window is [phi1]: data arriving at a
    master between [period] and [period + phi1] triggers error
    detection and a one-window stall of downstream clocks.

    Three-phase (after Cheng/Gu/Beerel's FF→3-phase latch conversion):
    three equal transparent windows [phi] separated by gaps [gamma].
    Its resiliency-window rule differs from the two-phase one — the
    window is [phi + gamma], extending through the non-overlap gap,
    because the following phase's latches stay opaque during the gap
    and a detection anywhere in it can still stall them. All deadline
    accessors below are derived per variant, so STA and stage
    classification work unchanged on either scheme. *)

type t =
  | Two_phase of {
      phi1 : float;   (** transparent window of phase 1 (masters) = window *)
      gamma1 : float; (** phase-1 fall to phase-2 rise *)
      phi2 : float;   (** transparent window of phase 2 (slaves) *)
      gamma2 : float; (** phase-2 fall to next phase-1 rise *)
    }
  | Three_phase of {
      phi : float;   (** transparent window of each of the three phases *)
      gamma : float; (** non-overlap gap between consecutive phases *)
    }

val v : phi1:float -> gamma1:float -> phi2:float -> gamma2:float -> t
(** Two-phase clocking. Validates all components are non-negative and
    [phi1 > 0]. *)

val three : phi:float -> gamma:float -> t
(** Three-phase clocking with equal windows. Validates [phi > 0] and
    [gamma >= 0]. *)

val of_p : float -> t
(** The paper's two-phase benchmark clocking (§VI-A) for a max stage
    delay [p]: [phi1 = 0.3p], [gamma1 = 0], [phi2 = 0.35p],
    [gamma2 = 0.05p], hence [period = 0.7p] and [max_delay = p]. *)

val of_p3 : float -> t
(** Three-phase analogue normalised the same way: [phi = 0.2p],
    [gamma = 0.05p], hence [period = 0.75p], a [0.25p] window and
    [max_delay = p]. *)

val phases : t -> int
(** 2 or 3. *)

val period : t -> float
(** Two-phase: [phi1 + gamma1 + phi2 + gamma2]. Three-phase:
    [3(phi + gamma)]. *)

val max_delay : t -> float
(** Longest legal master-to-master path,
    [period + resiliency_window]. *)

val tolerance : float
(** [1e-9] ns: the float rounding that every timing comparison of an
    arrival or delay against a deadline forgives. *)

val past_period : t -> float -> bool
(** The window test: an arrival later than {!period} by more than
    {!tolerance}. Its master must detect errors — the capture falls in
    the resiliency window, or past it. *)

val past_max_delay : t -> float -> bool
(** The max-delay test: an arrival later than {!max_delay} by more
    than {!tolerance}, which no error detection can repair. *)

val resiliency_window : t -> float
(** Two-phase: [phi1]. Three-phase: [phi + gamma] (the window runs
    through the non-overlap gap — see the module comment). *)

val slave_open : t -> float
(** Time (from master launch) the phase-2 latch becomes transparent:
    [phi1 + gamma1], or [phi + gamma] in the three-phase scheme. *)

val slave_close : t -> float
(** Time the phase-2 latch closes, Constraint (6) bound on [D^f]:
    [phi1 + gamma1 + phi2], or [2 phi + gamma]. *)

val backward_budget : t -> float
(** Time available from slave opening to the terminating master's
    closing edge, Constraint (7) bound on [D^b(v,t)]. In both schemes
    this is [period - slave_open + resiliency_window] (two-phase:
    [phi2 + gamma2 + phi1]). *)

val pp : Format.formatter -> t -> unit

val pp_diagram : Format.formatter -> t -> unit
(** ASCII rendering of Fig. 1: the clock phases, the resiliency window
    and the derived deadlines. *)
