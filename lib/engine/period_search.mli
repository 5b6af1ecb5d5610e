(** Minimum-period search — the classic other retiming objective
    (paper §II-C cites min-period alongside min-area).

    With the paper's fixed clock split ([phi1 = 0.3P] etc.), every
    timing bound scales with the single parameter [P], so binary search
    over [P] answers two questions about a stage:

    - {!min_feasible}: the smallest max stage delay for which a legal
      slave retiming exists at all (Constraints 6/7 satisfiable on
      every path);
    - {!min_detection_free}: the smallest [P] at which G-RAR can make
      {e every} master non-error-detecting — the period where
      resiliency becomes free. The gap between the two quantifies how
      much clock headroom the error-detection hardware is buying,
      which is the paper's motivation in reverse. *)

module Transform = Rar_netlist.Transform
module Liberty = Rar_liberty.Liberty
module Sta = Rar_sta.Sta
module Error = Rar_retime.Error

type search = {
  p : float;              (** found parameter *)
  iterations : int;
  lo : float;             (** final bracket *)
  hi : float;
}

val min_feasible :
  ?model:Sta.model ->
  lib:Liberty.t ->
  Transform.comb_circuit ->
  (search, Error.t) result
(** Both searches stop at a relative bracket width of 0.01. *)

val min_detection_free :
  ?model:Sta.model ->
  lib:Liberty.t ->
  Transform.comb_circuit ->
  (search, Error.t) result
